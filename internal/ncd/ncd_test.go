package ncd

import (
	"testing"
	"testing/quick"

	"repro/internal/counter"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/verify"
)

var methods = []Method{Basic, EarlyExit, Tarjan}

func scaledWeights(g *graph.Graph, p, q int64) []int64 {
	w := make([]int64, g.NumArcs())
	for i, a := range g.Arcs() {
		w[i] = q*a.Weight - p
	}
	return w
}

func TestMethodString(t *testing.T) {
	if Basic.String() != "basic" || EarlyExit.String() != "earlyexit" || Tarjan.String() != "tarjan" {
		t.Fatal("method names wrong")
	}
}

func TestKnownNegativeCycle(t *testing.T) {
	// Triangle of mean 2; probing λ = 3 must find a negative cycle, λ = 1
	// must not, λ = 2 must not (zero is not negative).
	b := graph.NewBuilder(3, 3)
	b.AddNodes(3)
	b.AddArc(0, 1, 1)
	b.AddArc(1, 2, 2)
	b.AddArc(2, 0, 3)
	g := b.Build()
	for _, m := range methods {
		if _, found := Detect(g, scaledWeights(g, 3, 1), m, nil); !found {
			t.Errorf("%v: λ=3 should reveal a negative cycle", m)
		}
		if cyc, found := Detect(g, scaledWeights(g, 1, 1), m, nil); found {
			t.Errorf("%v: λ=1 is feasible, got cycle %v", m, cyc)
		}
		if cyc, found := Detect(g, scaledWeights(g, 2, 1), m, nil); found {
			t.Errorf("%v: λ=λ* has only zero cycles, got %v", m, cyc)
		}
	}
}

func TestSelfLoop(t *testing.T) {
	b := graph.NewBuilder(1, 1)
	b.AddNodes(1)
	b.AddArc(0, 0, 5)
	g := b.Build()
	for _, m := range methods {
		cyc, found := Detect(g, scaledWeights(g, 6, 1), m, nil)
		if !found || len(cyc) != 1 {
			t.Errorf("%v: self-loop cycle not found: %v %v", m, cyc, found)
		}
	}
}

// TestAgreesWithOracle: all three detectors agree with the brute-force
// characterization (a negative cycle exists iff λ > λ*) on random graphs,
// and returned cycles are genuinely negative closed walks.
func TestAgreesWithOracle(t *testing.T) {
	f := func(seed uint64, nudge uint8) bool {
		g, err := gen.Sprand(gen.SprandConfig{N: 8, M: 20, MinWeight: -12, MaxWeight: 12, Seed: seed})
		if err != nil {
			return false
		}
		lambda, _, err := verify.BruteForceMinMean(g)
		if err != nil {
			return false
		}
		// Probe slightly above and below λ* on an exact grid.
		delta := numeric.NewRat(int64(nudge)%5+1, 7)
		for _, probe := range []struct {
			lam  numeric.Rat
			want bool
		}{
			{lambda.Add(delta), true},
			{lambda, false},
			{lambda.Sub(delta), false},
		} {
			w := scaledWeights(g, probe.lam.Num(), probe.lam.Den())
			for _, m := range methods {
				cyc, found := Detect(g, w, m, nil)
				if found != probe.want {
					t.Logf("%v seed=%d λ=%v: found=%v want=%v", m, seed, probe.lam, found, probe.want)
					return false
				}
				if found {
					if err := g.ValidateCycle(cyc); err != nil {
						t.Logf("%v: bad cycle: %v", m, err)
						return false
					}
					var sum int64
					for _, id := range cyc {
						sum += w[id]
					}
					if sum >= 0 {
						t.Logf("%v: returned cycle not negative: %d", m, sum)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRelaxationCountOrdering(t *testing.T) {
	// On a feasible probe the early-exit version must do no more
	// relaxations than the basic version; Tarjan typically far fewer.
	g, err := gen.Sprand(gen.SprandConfig{N: 200, M: 600, MinWeight: 1, MaxWeight: 10000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	w := scaledWeights(g, 0, 1) // λ = 0 < λ* (positive weights): feasible
	relax := map[Method]int{}
	for _, m := range methods {
		var c counter.Counts
		if _, found := Detect(g, w, m, &c); found {
			t.Fatalf("%v: spurious negative cycle", m)
		}
		relax[m] = c.Relaxations
	}
	if relax[EarlyExit] > relax[Basic] {
		t.Errorf("early exit (%d) did more work than basic (%d)", relax[EarlyExit], relax[Basic])
	}
	if relax[Basic] != 200*600 {
		t.Errorf("basic = %d relaxations, want n·m = 120000", relax[Basic])
	}
}

// TestHasNegativeRatioCycle checks the certifiers' inline-weight checker
// against EarlyExit on the same scaled weights q·w − p·t: same verdict and,
// pass for pass, the same counts.
func TestHasNegativeRatioCycle(t *testing.T) {
	verdicts := map[bool]int{}
	for seed := uint64(1); seed <= 20; seed++ {
		base, err := gen.Sprand(gen.SprandConfig{N: 10, M: 30, MinWeight: -20, MaxWeight: 20, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		arcs := base.Arcs()
		for i := range arcs {
			arcs[i].Transit = 1 + int64(i%4)
		}
		g := graph.FromArcs(base.NumNodes(), arcs)
		for p := int64(-140); p <= 140; p += 7 {
			const q = 7
			w := make([]int64, g.NumArcs())
			for i, a := range g.Arcs() {
				w[i] = q*a.Weight - p*a.Transit
			}
			var want, got counter.Counts
			_, found := Detect(g, w, EarlyExit, &want)
			neg, err := HasNegativeRatioCycle(g, p, q, &got)
			if err != nil {
				t.Fatal(err)
			}
			if neg != found || got != want {
				t.Fatalf("seed %d p/q = %d/%d: (%v, %+v), EarlyExit says (%v, %+v)", seed, p, q, neg, got, found, want)
			}
			verdicts[neg]++
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("degenerate probe mix: %v", verdicts)
	}
}

// TestHasNegativeRatioCycleRange checks the exact per-arc overflow guard:
// it refuses before counting any work, and accepts the largest magnitudes
// that fit.
func TestHasNegativeRatioCycleRange(t *testing.T) {
	const maxW = int64(1)<<31 - 1
	b := graph.NewBuilder(2, 2)
	b.AddNodes(2)
	b.AddArcTransit(0, 1, maxW, maxW)
	b.AddArcTransit(1, 0, -maxW, 1)
	g := b.Build()
	var c counter.Counts
	for _, pq := range [][2]int64{{1, 1 << 40}, {1 << 40, 1}, {-(1 << 40), 1}, {1 << 62, 1 << 62}} {
		if _, err := HasNegativeRatioCycle(g, pq[0], pq[1], &c); err != ErrRange {
			t.Errorf("p/q = %d/%d: err = %v, want ErrRange", pq[0], pq[1], err)
		}
	}
	if c != (counter.Counts{}) {
		t.Errorf("refused checks counted work: %+v", c)
	}
	// Cycle weight 0 and transit 2^31: ρ* = 0. Probing at 0/1 fits.
	if neg, err := HasNegativeRatioCycle(g, 0, 1, &c); err != nil || neg {
		t.Errorf("p/q = 0/1: (%v, %v), want feasible", neg, err)
	}
	if neg, err := HasNegativeRatioCycle(g, 1, 1<<20, nil); err != nil || !neg {
		t.Errorf("p/q = 1/2^20: (%v, %v), want a negative cycle", neg, err)
	}
}
