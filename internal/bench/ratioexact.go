package bench

// This file is the exact-ratio-mode comparison harness: every certified
// exact MCR solver — the Stern–Brocot mediant search against the float-free
// competition it joins (howard, lawler, dinkelbach) — timed on the same
// transit-weighted SPRAND instances, with every ρ* cross-checked
// bit-identical. Any disagreement is a Violation and mcmbench exits 2, so
// the recorded BENCH_ratio.json doubles as an equivalence gate. The sweep
// also gates the shared oracle's early exit: lawler's and sternbrocot's
// mean passes per probe must stay under ratioExactPassCeiling.
// `mcmbench -table ratio-exact -json > BENCH_ratio.json` records the sweep;
// `-quick` is the CI smoke variant.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ratio"
)

// RatioExactAlgos is the roster under comparison: the exact solvers that
// certify ρ* with no floating-point solve anywhere on the answer path.
var RatioExactAlgos = []string{"howard", "lawler", "dinkelbach", "sternbrocot"}

// ratioExactPassCeiling bounds the mean Bellman–Ford passes per probe,
// Relaxations ÷ (m·Probes), of the probe-bound solvers in
// ratioExactPassGated, on every row. It is 2× the highest value the
// oracle's per-pass parent-graph walk reaches on these instances (7.9, for
// lawler at n = 1024) and below every row of the n-pass negative probes it
// replaced (20–51 on the -quick rows, 75–353 on the full ones), so a lost
// early exit is a Violation.
const ratioExactPassCeiling = 16.0

var ratioExactPassGated = []string{"lawler", "sternbrocot"}

// RatioExactConfig parameterizes RunRatioExactSweep.
type RatioExactConfig struct {
	// Sizes lists (n, m) pairs; defaults to three SPRAND sizes.
	Sizes [][2]int
	// Seeds is the instance count per size; default 3.
	Seeds int
	// MaxTransit bounds the uniform transit times; default 8.
	MaxTransit int64
	// Smoke runs the reduced CI variant.
	Smoke bool
	// Progress, when non-nil, receives one line per completed size.
	Progress io.Writer
}

func (c RatioExactConfig) withDefaults() RatioExactConfig {
	if c.Sizes == nil {
		c.Sizes = [][2]int{{256, 1024}, {512, 2048}, {1024, 4096}}
	}
	if c.Seeds <= 0 {
		c.Seeds = 3
	}
	if c.Smoke {
		c.Sizes = [][2]int{{64, 256}, {128, 512}}
		c.Seeds = 2
	}
	if c.MaxTransit < 1 {
		c.MaxTransit = 8
	}
	return c
}

// RatioExactCell is one solver's aggregate over the seeds of one size.
type RatioExactCell struct {
	Seconds float64 `json:"seconds"`
	// Probes is the summed NegativeCycleChecks — the shared oracle's unit of
	// work, comparable across all four solvers.
	Probes     int `json:"probes"`
	Iterations int `json:"iterations"`
	// Relaxations counts every arc relaxation, the probes' and the
	// certifier's.
	Relaxations int64 `json:"relaxations"`
}

// passesPerProbe is the mean number of m-arc passes per probe.
func (c RatioExactCell) passesPerProbe(m int) float64 {
	if c.Probes == 0 || m == 0 {
		return 0
	}
	return float64(c.Relaxations) / float64(int64(m)*int64(c.Probes))
}

// RatioExactRow is one (n, m) row of the comparison.
type RatioExactRow struct {
	N     int                       `json:"n"`
	M     int                       `json:"m"`
	Cells map[string]RatioExactCell `json:"cells"`
	// Value is the (seed-0) certified ρ* as "num/den", a fingerprint for the
	// recorded JSON.
	Value string `json:"value"`
}

// RatioExactReport is a completed sweep.
type RatioExactReport struct {
	Algos      []string `json:"algos"`
	Seeds      int      `json:"seeds"`
	MaxTransit int64    `json:"max_transit"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`

	Rows []RatioExactRow `json:"rows"`
	// Violations lists every ρ* disagreement or failed certification; the
	// exact tier has no tolerance, so mcmbench exits 2 when non-empty.
	Violations []string `json:"violations,omitempty"`
}

// JSON renders the report for BENCH_ratio.json.
func (r *RatioExactReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// RunRatioExactSweep times each exact solver with certification on and
// cross-checks the certified ρ* bit-identical across the roster.
func RunRatioExactSweep(cfg RatioExactConfig) (*RatioExactReport, error) {
	cfg = cfg.withDefaults()
	rep := &RatioExactReport{
		Algos: RatioExactAlgos, Seeds: cfg.Seeds, MaxTransit: cfg.MaxTransit,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, size := range cfg.Sizes {
		row := RatioExactRow{N: size[0], M: size[1], Cells: map[string]RatioExactCell{}}
		for seed := 0; seed < cfg.Seeds; seed++ {
			base, err := gen.Sprand(gen.SprandConfig{
				N: size[0], M: size[1], MinWeight: -5000, MaxWeight: 10000, Seed: uint64(seed) + 1,
			})
			if err != nil {
				return nil, err
			}
			arcs := make([]graph.Arc, base.NumArcs())
			state := uint64(seed)*0x9e3779b97f4a7c15 + 7
			for i, a := range base.Arcs() {
				state = state*6364136223846793005 + 1442695040888963407
				a.Transit = 1 + int64((state>>33)%uint64(cfg.MaxTransit))
				arcs[i] = a
			}
			g := graph.FromArcs(base.NumNodes(), arcs)

			var refName, refValue string
			for _, name := range RatioExactAlgos {
				algo, err := ratio.ByName(name)
				if err != nil {
					return nil, err
				}
				start := time.Now()
				res, err := ratio.MinimumCycleRatio(g, algo, core.Options{Certify: true})
				secs := time.Since(start).Seconds()
				if err != nil {
					return nil, fmt.Errorf("bench: ratio-exact %s on n=%d m=%d seed=%d: %w",
						name, size[0], size[1], seed, err)
				}
				cell := row.Cells[name]
				cell.Seconds += secs
				cell.Probes += res.Counts.NegativeCycleChecks
				cell.Iterations += res.Counts.Iterations
				cell.Relaxations += int64(res.Counts.Relaxations)
				row.Cells[name] = cell

				value := res.Ratio.String()
				switch {
				case !res.Exact || res.Certificate == nil:
					rep.Violations = append(rep.Violations, fmt.Sprintf(
						"n=%d m=%d seed=%d: %s returned an uncertified or inexact result",
						size[0], size[1], seed, name))
				case refName == "":
					refName, refValue = name, value
					if seed == 0 {
						row.Value = value
					}
				case value != refValue:
					rep.Violations = append(rep.Violations, fmt.Sprintf(
						"n=%d m=%d seed=%d: %s says ρ* = %s, %s says %s",
						size[0], size[1], seed, name, value, refName, refValue))
				}
			}
		}
		for _, name := range ratioExactPassGated {
			if p := row.Cells[name].passesPerProbe(row.M); p > ratioExactPassCeiling {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"n=%d m=%d: %s averages %.1f passes per probe, ceiling %.0f",
					size[0], size[1], name, p, ratioExactPassCeiling))
			}
		}
		rep.Rows = append(rep.Rows, row)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "ratio-exact: n=%d m=%d done (%d seeds × %d solvers)\n",
				size[0], size[1], cfg.Seeds, len(RatioExactAlgos))
		}
	}
	return rep, nil
}

// WriteRatioExact renders the comparison.
func WriteRatioExact(w io.Writer, rep *RatioExactReport) {
	fmt.Fprintf(w, "ratio-exact: certified exact MCR solvers on transit-weighted SPRAND (transit ≤ %d, %d seeds)\n",
		rep.MaxTransit, rep.Seeds)
	fmt.Fprintf(w, "%6s %7s", "n", "m")
	for _, name := range rep.Algos {
		fmt.Fprintf(w, " %12s %8s %7s", name+" (s)", "probes", "passes")
	}
	fmt.Fprintln(w)
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%6d %7d", r.N, r.M)
		for _, name := range rep.Algos {
			c := r.Cells[name]
			fmt.Fprintf(w, " %12.4f %8d %7.1f", c.Seconds, c.Probes, c.passesPerProbe(r.M))
		}
		fmt.Fprintln(w)
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
}
