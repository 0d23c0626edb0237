package ratio

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// oracleBacked lists the solvers whose feasibility probes run through the
// shared parametric oracle (and therefore share its counter, cancellation,
// and ErrNumericRange semantics). ko/yto drive Karp-style parametric
// recurrences and expand delegates to a mean solver, so they only guarantee
// the generic counter contract.
var oracleBacked = []string{"bhk", "burns", "dinkelbach", "howard", "lawler", "megiddo", "sternbrocot"}

// twoCycleGraph has cycles of ratio 2 (optimal) and 4.
func twoCycleGraph() *graph.Graph {
	b := graph.NewBuilder(3, 4)
	b.AddNodes(3)
	b.AddArcTransit(0, 1, 3, 2)
	b.AddArcTransit(1, 0, 5, 2)
	b.AddArcTransit(1, 2, 6, 1)
	b.AddArcTransit(2, 1, 2, 1)
	return b.Build()
}

// TestRatioAdversarialRange pushes ±(2^31−1) weights and transits through
// every registered algorithm. The contract mirrors the core package's range
// tests: each solver either returns the exact certified optimum or a typed
// ErrNumericRange — never a silently wrapped wrong answer. Solvers
// legitimately differ on which side they land (sternbrocot's shifted probes
// exceed int64 where howard's certificate probes do not).
func TestRatioAdversarialRange(t *testing.T) {
	const maxW = int64(1)<<31 - 1
	ring := func(weights []int64, transits []int64) *graph.Graph {
		n := len(weights)
		b := graph.NewBuilder(n, n)
		b.AddNodes(n)
		for i := 0; i < n; i++ {
			b.AddArcTransit(graph.NodeID(i), graph.NodeID((i+1)%n), weights[i], transits[i])
		}
		return b.Build()
	}
	cases := []struct {
		name string
		g    *graph.Graph
		want numeric.Rat
	}{
		{"maxw-pos", ring([]int64{maxW, maxW - 1}, []int64{1, 1}), numeric.NewRat(2*maxW-1, 2)},
		{"maxw-mixed", ring([]int64{maxW, -maxW}, []int64{1, 1}), numeric.NewRat(0, 1)},
		{"maxw-neg", ring([]int64{-maxW, -maxW + 3}, []int64{1, 2}), numeric.NewRat(-2*maxW+3, 3)},
		{"maxt", ring([]int64{3, 4}, []int64{maxW, maxW - 2}), numeric.NewRat(7, 2*maxW-2)},
		{"maxw-maxt", ring([]int64{maxW, -maxW}, []int64{maxW, maxW}), numeric.NewRat(0, 1)},
		{"maxw-maxt-pos", ring([]int64{maxW, maxW}, []int64{maxW, maxW}), numeric.NewRat(1, 1)},
	}
	for _, name := range Names() {
		algo, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			res, err := MinimumCycleRatio(tc.g, algo, core.Options{Certify: true})
			if err != nil {
				if !errors.Is(err, ErrNumericRange) {
					t.Errorf("%s/%s: err = %v, want nil or ErrNumericRange", name, tc.name, err)
				}
				continue
			}
			if !res.Ratio.Equal(tc.want) {
				t.Errorf("%s/%s: ρ* = %v, want %v", name, tc.name, res.Ratio, tc.want)
			}
			if res.Certificate == nil {
				t.Errorf("%s/%s: missing certificate", name, tc.name)
			}
		}
	}
}

// TestOracleCancellation checks that a fired cancellation token surfaces as
// core.ErrCanceled from the oracle itself and — identically — from every
// solver layered on it (satellite: the three formerly-private probe cores had
// diverging cancellation behavior; the shared oracle makes it uniform).
func TestOracleCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt, stop := core.Options{}.WithCancelContext(ctx)
	defer stop()

	g := twoCycleGraph()
	o := newOracle(g, opt, nil)
	defer o.Close()
	if _, _, err := o.Probe(2, 1); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("oracle.Probe on canceled token: err = %v, want core.ErrCanceled", err)
	}

	for _, name := range oracleBacked {
		algo, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := algo.Solve(g, opt); !errors.Is(err, core.ErrCanceled) {
			t.Errorf("%s: err = %v, want core.ErrCanceled", name, err)
		}
	}
}

// TestOracleTightCycle pins the equality test's state discipline: TightCycle
// answers only for the parameters of the most recent converged probe.
func TestOracleTightCycle(t *testing.T) {
	g := twoCycleGraph()
	o := newOracle(g, core.Options{}, nil)
	defer o.Close()

	neg, _, err := o.Probe(2, 1)
	if err != nil || neg {
		t.Fatalf("Probe(2,1) = (%v, %v), want feasible", neg, err)
	}
	cycle, ok := o.TightCycle(2, 1)
	if !ok {
		t.Fatal("TightCycle(2,1) found nothing at ρ* = 2")
	}
	if r, ok := cycleRatio(g, cycle); !ok || !r.Equal(numeric.NewRat(2, 1)) {
		t.Fatalf("tight cycle ratio = %v, want 2", r)
	}
	// Parameter mismatch with the converged state: must refuse.
	if _, ok := o.TightCycle(3, 1); ok {
		t.Fatal("TightCycle(3,1) answered from stale (2,1) distances")
	}
	// Converged below the optimum: no tight cycle of that ratio exists.
	if neg, _, err = o.Probe(1, 1); err != nil || neg {
		t.Fatalf("Probe(1,1) = (%v, %v), want feasible", neg, err)
	}
	if _, ok := o.TightCycle(1, 1); ok {
		t.Fatal("TightCycle(1,1) found a cycle below ρ*")
	}
	// A negative probe leaves no converged distances behind.
	if neg, _, err = o.Probe(3, 1); err != nil || !neg {
		t.Fatalf("Probe(3,1) = (%v, %v), want negative cycle", neg, err)
	}
	if _, ok := o.TightCycle(3, 1); ok {
		t.Fatal("TightCycle answered after a non-converged probe")
	}
}

// TestOracleProbeAllocs verifies the pooled workspace: after the first probe,
// repeated feasibility probes allocate nothing.
func TestOracleProbeAllocs(t *testing.T) {
	g := twoCycleGraph()
	o := newOracle(g, core.Options{}, nil)
	defer o.Close()
	if _, _, err := o.Probe(1, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		neg, _, err := o.Probe(1, 1)
		if err != nil || neg {
			t.Fatalf("Probe(1,1) = (%v, %v)", neg, err)
		}
	})
	if allocs != 0 {
		t.Errorf("feasible probe allocates %.1f objects per run, want 0", allocs)
	}
}

// TestOracleProbeTrace checks the ProbeEvent emission path: one event per
// probe, carrying the parameter, the verdict, and a positive pass count.
func TestOracleProbeTrace(t *testing.T) {
	var events []obs.ProbeEvent
	tr := &obs.Trace{OnProbe: func(ev obs.ProbeEvent) { events = append(events, ev) }}
	g := twoCycleGraph()
	o := newOracle(g, core.Options{Tracer: tr}, nil)
	defer o.Close()

	if _, _, err := o.Probe(2, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.Probe(3, 1); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d probe events, want 2", len(events))
	}
	feas, neg := events[0], events[1]
	if feas.Num != 2 || feas.Den != 1 || feas.Negative || feas.Passes < 1 {
		t.Errorf("feasible event = %+v", feas)
	}
	if neg.Num != 3 || neg.Den != 1 || !neg.Negative || neg.Passes < 1 {
		t.Errorf("negative event = %+v", neg)
	}
}

// TestRatioCountsConsistency is the reflection-style counter contract: every
// registered algorithm reports non-zero work on the same graph, and the
// oracle-backed solvers report consistently scaled probe counters — each
// probe runs between 1 and n full passes of exactly m relaxations, so
//
//	m·checks ≤ Relaxations ≤ m·n·(checks + iterations + 1)
//
// (the upper slack covers howard/megiddo/burns' own per-iteration
// relaxation sweeps on top of the oracle's).
func TestRatioCountsConsistency(t *testing.T) {
	g := withTransits(gen.Complete(8, -20, 30, 1), 4)
	n, m := int64(g.NumNodes()), int64(g.NumArcs())
	backed := map[string]bool{}
	for _, name := range oracleBacked {
		backed[name] = true
	}
	for _, name := range Names() {
		algo, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := algo.Solve(g, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v := reflect.ValueOf(res.Counts)
		var total int64
		for i := 0; i < v.NumField(); i++ {
			total += v.Field(i).Int()
		}
		if total == 0 {
			t.Errorf("%s: all counters zero: %+v", name, res.Counts)
		}
		if res.Counts.Iterations == 0 {
			t.Errorf("%s: Iterations = 0: %+v", name, res.Counts)
		}
		if !backed[name] {
			continue
		}
		checks := int64(res.Counts.NegativeCycleChecks)
		rel := int64(res.Counts.Relaxations)
		iters := int64(res.Counts.Iterations)
		if checks == 0 {
			t.Errorf("%s: oracle-backed solver reported no probes: %+v", name, res.Counts)
			continue
		}
		if rel < m*checks {
			t.Errorf("%s: Relaxations %d < m·checks = %d·%d: %+v", name, rel, m, checks, res.Counts)
		}
		if max := m * n * (checks + iters + 1); rel > max {
			t.Errorf("%s: Relaxations %d > m·n·(checks+iters+1) = %d: %+v", name, rel, max, res.Counts)
		}
	}
}

// pathIntoCycle is a 512-node graph whose only negative cycle at λ = 0 is
// the two-node loop at its end, fed by a long path of negative arcs listed
// in reverse, so that path distances keep falling for about n passes.
func pathIntoCycle() *graph.Graph {
	const n = 512
	b := graph.NewBuilder(n, n+1)
	b.AddNodes(n)
	for v := n - 3; v >= 0; v-- {
		b.AddArcTransit(graph.NodeID(v), graph.NodeID(v+1), -1, 1)
	}
	b.AddArcTransit(n-2, n-1, -5, 1)
	b.AddArcTransit(n-1, n-2, -5, 1)
	b.AddArcTransit(n-1, 0, 10*n, 1)
	return b.Build()
}

// TestOracleEarlyExit pins the per-pass parent-graph walk: a negative probe
// stops as soon as its parent graph closes a cycle, not after n passes.
func TestOracleEarlyExit(t *testing.T) {
	var events []obs.ProbeEvent
	tr := &obs.Trace{OnProbe: func(ev obs.ProbeEvent) { events = append(events, ev) }}
	g := pathIntoCycle()
	o := newOracle(g, core.Options{Tracer: tr}, nil)
	defer o.Close()
	neg, cycle, err := o.Probe(0, 1)
	if err != nil || !neg {
		t.Fatalf("Probe(0,1) = (%v, %v), want a negative cycle", neg, err)
	}
	if len(events) != 1 || !events[0].Negative {
		t.Fatalf("probe events = %+v", events)
	}
	if p := events[0].Passes; p > 4 {
		t.Errorf("negative probe ran %d passes on n = %d, want <= 4", p, g.NumNodes())
	}
	if err := g.ValidateCycle(cycle); err != nil {
		t.Fatal(err)
	}
	if w := g.CycleWeight(cycle); w != -10 {
		t.Errorf("witness weight %d, want the -10 loop", w)
	}
}

// TestOracleNegativeProbeAllocs pins that a negative probe allocates exactly
// one object, the witness cycle it returns.
func TestOracleNegativeProbeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	g := pathIntoCycle()
	o := newOracle(g, core.Options{}, nil)
	defer o.Close()
	allocs := testing.AllocsPerRun(200, func() {
		neg, _, err := o.Probe(0, 1)
		if err != nil || !neg {
			t.Fatalf("Probe(0,1) = (%v, %v)", neg, err)
		}
	})
	if allocs != 1 {
		t.Errorf("negative probe allocates %.1f objects per run, want 1 (the cycle)", allocs)
	}
}
