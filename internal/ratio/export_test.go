package ratio

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// ProbeOnce runs one shared-oracle probe on g for the external test package,
// which can import internal/testutil where this package's own tests cannot.
func ProbeOnce(g *graph.Graph, num, den int64) (bool, []graph.ArcID, error) {
	o := newOracle(g, core.Options{}, nil)
	defer o.Close()
	return o.Probe(num, den)
}
