package core

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// reweight returns a copy of g with every arc weight shifted by delta(id) —
// the structure (endpoints, transit, arc order) is untouched, so a Session
// must treat the result as the same fingerprint.
func reweight(g *graph.Graph, delta func(int) int64) *graph.Graph {
	arcs := append([]graph.Arc(nil), g.Arcs()...)
	for i := range arcs {
		arcs[i].Weight += delta(i)
	}
	return graph.FromArcs(g.NumNodes(), arcs)
}

func TestSessionMatchesMinimumCycleMean(t *testing.T) {
	howard := mustAlgo(t, "howard")
	graphs := []*graph.Graph{
		gen.Cycle(10, 7),
		gen.Torus(5, 6, -50, 50, 3),
		gen.Complete(12, -100, 100, 4),
	}
	if g, err := gen.Sprand(gen.SprandConfig{N: 60, M: 180, MinWeight: -1000, MaxWeight: 1000, Seed: 11}); err == nil {
		graphs = append(graphs, g)
	}
	if g, err := gen.MultiSCC(4, 15, 40, 21); err == nil {
		graphs = append(graphs, g)
	}
	if g, err := gen.Chain(gen.ChainConfig{CoreN: 8, Chains: 4, ChainLen: 25, MinWeight: -20, MaxWeight: 20, SelfLoops: 2, Seed: 5}); err == nil {
		graphs = append(graphs, g)
	}

	s := NewSession(Options{})
	for i, g := range graphs {
		want, err := MinimumCycleMean(g, howard, Options{})
		if err != nil {
			t.Fatalf("graph %d: reference solve: %v", i, err)
		}
		got, err := s.Solve(g)
		if err != nil {
			t.Fatalf("graph %d: session solve: %v", i, err)
		}
		if !got.Mean.Equal(want.Mean) {
			t.Errorf("graph %d: session mean %v, want %v", i, got.Mean, want.Mean)
		}
		if err := g.ValidateCycle(got.Cycle); err != nil {
			t.Errorf("graph %d: session cycle invalid: %v", i, err)
		}
	}
}

func TestSessionWarmStartAfterWeightUpdates(t *testing.T) {
	howard := mustAlgo(t, "howard")
	g, err := gen.Sprand(gen.SprandConfig{N: 100, M: 400, MinWeight: -500, MaxWeight: 500, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(Options{})
	if _, err := s.Solve(g); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WarmHits != 0 || st.WarmMisses == 0 {
		t.Fatalf("first solve must be cold: %+v", st)
	}

	// A sequence of weight perturbations on the same structure: every
	// subsequent component solve must hit the cache, and every result must
	// match a cold reference solve exactly.
	for round := 1; round <= 5; round++ {
		pg := reweight(g, func(i int) int64 { return int64((i*round)%21 - 10) })
		want, err := MinimumCycleMean(pg, howard, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Solve(pg)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Mean.Equal(want.Mean) {
			t.Fatalf("round %d: warm mean %v, want %v", round, got.Mean, want.Mean)
		}
		if err := pg.ValidateCycle(got.Cycle); err != nil {
			t.Fatalf("round %d: warm cycle invalid: %v", round, err)
		}
	}
	st = s.Stats()
	if st.WarmHits == 0 {
		t.Errorf("weight-only updates never hit the policy cache: %+v", st)
	}
	if st.Solves != 6 {
		t.Errorf("Solves = %d, want 6", st.Solves)
	}
}

func TestSessionInvalidationOnStructuralChange(t *testing.T) {
	howard := mustAlgo(t, "howard")
	g, err := gen.Sprand(gen.SprandConfig{N: 50, M: 150, MinWeight: 1, MaxWeight: 100, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(Options{})
	if _, err := s.Solve(g); err != nil {
		t.Fatal(err)
	}
	misses := s.Stats().WarmMisses

	// Structural changes of every kind: added arc, removed arc, rewired
	// endpoint, changed transit. Each must change the fingerprint, so the
	// solve runs cold (stale policies are never consulted), and each result
	// must match the reference.
	arcs := g.Arcs()
	variants := []*graph.Graph{
		// Arc added.
		graph.FromArcs(g.NumNodes(), append(append([]graph.Arc(nil), arcs...), graph.Arc{From: 0, To: graph.NodeID(g.NumNodes() / 2), Weight: 5, Transit: 1})),
		// Arc removed.
		graph.FromArcs(g.NumNodes(), append([]graph.Arc(nil), arcs[:len(arcs)-1]...)),
	}
	// Endpoint rewired.
	rw := append([]graph.Arc(nil), arcs...)
	rw[len(rw)-1].To = (rw[len(rw)-1].To + 1) % graph.NodeID(g.NumNodes())
	if rw[len(rw)-1].To == rw[len(rw)-1].From {
		rw[len(rw)-1].To = (rw[len(rw)-1].To + 1) % graph.NodeID(g.NumNodes())
	}
	variants = append(variants, graph.FromArcs(g.NumNodes(), rw))
	// Transit changed (structural for the ratio view of the graph).
	tr := append([]graph.Arc(nil), arcs...)
	tr[0].Transit = 3
	variants = append(variants, graph.FromArcs(g.NumNodes(), tr))

	for i, vg := range variants {
		before := s.Stats()
		got, err := s.Solve(vg)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		after := s.Stats()
		if after.WarmHits != before.WarmHits {
			t.Errorf("variant %d: structural change hit the cache (hits %d -> %d)", i, before.WarmHits, after.WarmHits)
		}
		if after.WarmMisses <= misses {
			t.Errorf("variant %d: expected a cold component solve", i)
		}
		want, err := MinimumCycleMean(vg, howard, Options{})
		if err != nil {
			t.Fatalf("variant %d: reference: %v", i, err)
		}
		if !got.Mean.Equal(want.Mean) {
			t.Errorf("variant %d: mean %v, want %v", i, got.Mean, want.Mean)
		}
		misses = after.WarmMisses
	}
}

func TestSessionReset(t *testing.T) {
	g := gen.Cycle(20, 3)
	s := NewSession(Options{})
	if _, err := s.Solve(g); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(g); err != nil {
		t.Fatal(err)
	}
	if s.Stats().WarmHits == 0 {
		t.Fatal("repeat solve must warm-start")
	}
	s.Reset()
	if _, err := s.Solve(g); err != nil {
		t.Fatal(err)
	}
	if hits := s.Stats().WarmHits; hits != 1 {
		t.Errorf("post-Reset solve must be cold (hits = %d, want 1)", hits)
	}
}

// TestSessionPolicyCacheBound solves a stream of distinct structures whose
// policies fill the ArcID bound exactly every 16 solves: the cache never
// holds more than the bound, each wholesale clear counts one eviction, and a
// structure seen again before the next clear still warm-starts, also when
// the cache is full.
func TestSessionPolicyCacheBound(t *testing.T) {
	const n = 1 << 16 // nodes per structure, all in one cyclic component
	perClear := sessionMaxArcIDs / n
	// structure k: the cycle 0→1→…→n−1→0 plus a chord 0→k, so each k has
	// its own fingerprint; shift moves only the weights.
	structure := func(k int, shift int64) *graph.Graph {
		b := graph.NewBuilder(n, n+1)
		b.AddNodes(n)
		for v := 0; v < n; v++ {
			b.AddArc(graph.NodeID(v), graph.NodeID((v+1)%n), (int64(v)+shift)%7)
		}
		b.AddArc(0, graph.NodeID(k), shift)
		return b.Build()
	}
	s := NewSession(Options{})
	solve := func(g *graph.Graph) SessionStats {
		t.Helper()
		if _, err := s.Solve(g); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		held := 0
		for _, p := range s.cache {
			held += len(p)
		}
		if held != s.cached || held > sessionMaxArcIDs {
			t.Fatalf("cache holds %d ArcIDs, counted %d, bound %d", held, s.cached, sessionMaxArcIDs)
		}
		return s.stats
	}
	for k := 0; k <= 2*perClear; k++ {
		st := solve(structure(k+2, 0))
		if want := k / perClear; st.Evictions != want {
			t.Fatalf("structure %d: Evictions = %d, want %d", k, st.Evictions, want)
		}
		// Solve the previous structure again right after a clear and when
		// the cache is full.
		if pos := k % perClear; pos != 1 && pos != perClear-1 {
			continue
		}
		again := solve(structure(k+1, 3))
		if again.WarmHits != st.WarmHits+1 || again.Evictions != st.Evictions {
			t.Fatalf("structure %d seen again: stats %+v after %+v, want one more warm hit and no clear", k-1, again, st)
		}
	}
}

func TestSessionStatsCountFailedSolves(t *testing.T) {
	// Regression: Solves used to be incremented only on the success path, so
	// a failed call (acyclic input, certification failure, numeric overflow)
	// left Solves < number of Solve invocations and there was no way to tell
	// how many calls errored. Every call must count, and failures must be
	// tallied in Errors.
	b := graph.NewBuilder(3, 2)
	b.AddNodes(3)
	b.AddArc(0, 1, 1)
	b.AddArc(1, 2, 1)
	dag := b.Build()

	s := NewSession(Options{})
	if _, err := s.Solve(dag); !errors.Is(err, ErrAcyclic) {
		t.Fatalf("Solve(dag) = %v, want ErrAcyclic", err)
	}
	st := s.Stats()
	if st.Solves != 1 {
		t.Errorf("after one failed call, Solves = %d, want 1", st.Solves)
	}
	if st.Errors != 1 {
		t.Errorf("after one failed call, Errors = %d, want 1", st.Errors)
	}

	// A successful call after the failure: Solves counts both, Errors only
	// the failure, and their difference is the success count.
	if _, err := s.Solve(gen.Cycle(5, 2)); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Solves != 2 || st.Errors != 1 {
		t.Errorf("stats = {Solves: %d, Errors: %d}, want {2, 1}", st.Solves, st.Errors)
	}
}

func TestValidWarmPolicy(t *testing.T) {
	g := gen.Cycle(4, 1)
	// The only valid policy of a 4-cycle: arc i leaves node i.
	good := []graph.ArcID{0, 1, 2, 3}
	if !validWarmPolicy(g, good) {
		t.Error("valid policy rejected")
	}
	cases := [][]graph.ArcID{
		{0, 1, 2},     // wrong length
		{1, 1, 2, 3},  // arc 1 does not leave node 0
		{0, 1, 2, 99}, // out of range
		{0, 1, 2, -1}, // negative
		{3, 0, 1, 2},  // every arc leaves the wrong node
	}
	for i, warm := range cases {
		if validWarmPolicy(g, warm) {
			t.Errorf("case %d: invalid policy accepted", i)
		}
	}
}

func TestSessionWarmStartReducesIterations(t *testing.T) {
	g, err := gen.Sprand(gen.SprandConfig{N: 300, M: 1200, MinWeight: -10000, MaxWeight: 10000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(Options{})
	cold, err := s.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny perturbation: the old optimal policy should be optimal or nearly
	// optimal, so the warm solve must not take more iterations than cold.
	pg := reweight(g, func(i int) int64 { return int64(i % 3) })
	warm, err := s.Solve(pg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Counts.Iterations > cold.Counts.Iterations {
		t.Errorf("warm solve took %d iterations, cold took %d", warm.Counts.Iterations, cold.Counts.Iterations)
	}
}
