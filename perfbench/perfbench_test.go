package main

import (
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/serve"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		permille int
		value    float64
		beyond   int
	}{
		{n: 1000, permille: 900, value: 900, beyond: 100}, // a tenth of the samples beyond
		{n: 100, permille: 900, value: 90, beyond: 10},
		{n: 1234, permille: 899, value: 1110, beyond: 124}, // p90 leaves 123, under a tenth (123.4)
		{n: 37, permille: 729, value: 27, beyond: 10},      // ten beyond, more than a tenth
		{n: 11, permille: 90, value: 1, beyond: 10},
		{n: 5, permille: 1000, value: 5, beyond: 0}, // too few: the maximum
	} {
		got := tail(seq(tc.n))
		if got.Permille != tc.permille || got.Value != tc.value || got.Beyond != tc.beyond || got.Samples != tc.n {
			t.Errorf("n=%d: got %+v, want p%d=%v with %d beyond", tc.n, got, tc.permille, tc.value, tc.beyond)
		}
	}
	if got := tailBeyond(seq(2000), tailMinBeyond); got.Permille != 995 || got.Value != 1990 || got.Beyond != 10 {
		t.Errorf("ten-beyond rule on 2000 samples: got %+v, want p99.5=1990 with 10 beyond", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},   // overlaps a: [10,50] counts once
		{Name: "c", Parent: 0, Start: 90, End: 120},  // clipped to the parent's end
		{Name: "d", Parent: 2, Start: 25, End: 35},   // grandchild: only b loses it
		{Name: "e", Parent: 0, Start: 200, End: 210}, // outside the parent: covers nothing
	}
	want := []int64{50, 20, 20, 30, 10, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	lt := sumLayers(append(spans, span{Name: "graph.scc", Parent: 0, Start: 60, End: 70}))
	if got := lt.self["op"]; got != 40 {
		t.Errorf("op self with a shadow child = %d, want 40", got)
	}
	// attributed: a+b+c+d+e, without the op root and the shadow span.
	if got := lt.attributed(); got != 90 {
		t.Errorf("attributed = %d, want 90", got)
	}
}

func smallSprand(t *testing.T, idx, n, m int, maxTransit int64) *graph.Graph {
	t.Helper()
	g, err := sprand(7, idx, n, m, 1, 10000, maxTransit)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRotationKeepsAnswerChangesKeys pins the cold workloads' trick: a
// rotated arc list has the same λ* and its witness cycle the same mean,
// while both the result-cache fingerprint and core.Session's structural key
// change, so a rotated body misses both caches.
func TestRotationKeepsAnswerChangesKeys(t *testing.T) {
	g := smallSprand(t, 1, 64, 256, 0)
	const rot = 17
	rg := graph.FromArcs(g.NumNodes(), rotateArcs(g.Arcs(), rot))
	want, err := refMean(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := refMean(rg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("rotated λ* %v, want %v", got, want)
	}
	howard, _ := core.ByName("howard")
	res, err := core.MinimumCycleMean(rg, howard, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	view := graphView{base: g.Arcs(), rot: rot}
	v := &serve.RatValue{Num: res.Mean.Num(), Den: res.Mean.Den()}
	if err := checkAnswer(v, res.Cycle, want, false, func(id int64) (graph.Arc, bool) { return view.arc(int(id)), true }); err != nil {
		t.Fatalf("rotated witness: %v", err)
	}
	if g.Fingerprint() == rg.Fingerprint() {
		t.Fatal("rotation kept the fingerprint")
	}

	sess := core.NewSession(core.Options{})
	for _, h := range []*graph.Graph{g, rg} {
		if _, err := sess.Solve(h); err != nil {
			t.Fatal(err)
		}
	}
	if st := sess.Stats(); st.WarmHits != 0 || st.WarmMisses != 2 {
		t.Fatalf("rotated graph warm-started: %+v", st)
	}
	if _, err := sess.Solve(g); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.WarmHits != 1 {
		t.Fatalf("the unrotated graph did not hit its own key: %+v", st)
	}
}

// TestRotatedBodyDecodes checks that the zero-copy rotated JSON body decodes
// to exactly the rotated arc list.
func TestRotatedBodyDecodes(t *testing.T) {
	g := smallSprand(t, 2, 32, 96, 8)
	r := newRotatable(g)
	for _, rot := range []int{0, 1, 50, 95} {
		pieces := append(append([][]byte{[]byte(`{"nodes":32,"arcs":[`)}, r.rotated(rot)...), []byte(`]}`))
		var body []byte
		for _, p := range pieces {
			body = append(body, p...)
		}
		got := new(graph.Graph)
		if err := json.Unmarshal(body, got); err != nil {
			t.Fatalf("rot %d: %v", rot, err)
		}
		if !reflect.DeepEqual(got.Arcs(), rotateArcs(g.Arcs(), rot)) {
			t.Fatalf("rot %d: decoded arcs differ from the rotation", rot)
		}
	}
}

// TestDeltaScriptLoopReturns plays two passes of a delta script through a
// core.DynSession: every answer matches the fresh solve of its step, and
// each pass ends on the seed graph's arc multiset.
func TestDeltaScriptLoopReturns(t *testing.T) {
	g := smallSprand(t, 3, 200, 800, 0)
	s := newDeltaScript(g, 11, 24)
	if err := s.solveReferences(); err != nil {
		t.Fatal(err)
	}
	// The references taken over from earlier steps match fresh solves.
	all := *s
	all.same = make([]int, len(s.steps))
	for k := range all.same {
		all.same[k] = k
	}
	err := all.graphsAfterEach(func(k int, g *graph.Graph) error {
		want, err := refMean(g)
		if err == nil && !want.Equal(s.want[k]) {
			t.Errorf("step %d: reference %v, fresh solve %v", k, s.want[k], want)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]int{}
	for _, st := range s.steps {
		ops[st.op]++
	}
	if ops["set-weight"] == 0 || ops["insert-arc"] == 0 || ops["delete-arc"] == 0 {
		t.Fatalf("script lacks an op kind: %v", ops)
	}
	multiset := func(arcs []graph.Arc) []graph.Arc {
		out := append([]graph.Arc(nil), arcs...)
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.From != b.From {
				return a.From < b.From
			}
			if a.To != b.To {
				return a.To < b.To
			}
			return a.Weight < b.Weight
		})
		return out
	}
	seed := multiset(g.Arcs())
	ds := core.NewDynSession(g, core.Options{Certify: true})
	p := newDeltaPlayer(s)
	for pass := 0; pass < 2; pass++ {
		for range s.steps {
			dr, exp := p.next()
			ids, res, err := ds.Update(context.Background(), []core.Delta{toCoreDelta(dr)})
			if err != nil {
				t.Fatalf("pass %d step %d: %v", pass, exp.step, err)
			}
			out := serve.DeltaResult{OK: true, Applied: true, ID: -1, Certified: res.Certificate != nil,
				Value: &serve.RatValue{Num: res.Mean.Num(), Den: res.Mean.Den()}, Cycle: res.Cycle}
			if len(ids) > 0 {
				out.ID = ids[0]
			}
			if err := p.check(exp, out); err != nil {
				t.Fatalf("pass %d step %d: %v", pass, exp.step, err)
			}
		}
		snap, _ := ds.Materialize()
		if !reflect.DeepEqual(multiset(snap.Arcs()), seed) {
			t.Fatalf("pass %d did not return to the seed graph", pass)
		}
		if !reflect.DeepEqual(multiset(sortedArcs(p.arcs)), seed) {
			t.Fatalf("pass %d: the player's model is not the seed graph", pass)
		}
	}
}

func TestCheckAnswerRejectsBrokenCycles(t *testing.T) {
	arcs := []graph.Arc{{From: 0, To: 1, Weight: 2, Transit: 1}, {From: 1, To: 0, Weight: 4, Transit: 1}, {From: 1, To: 2, Weight: 1, Transit: 1}}
	lookup := func(id int64) (graph.Arc, bool) {
		if id < 0 || id >= int64(len(arcs)) {
			return graph.Arc{}, false
		}
		return arcs[id], true
	}
	v := &serve.RatValue{Num: 3, Den: 1}
	if err := checkAnswer(v, []graph.ArcID{0, 1}, ratOf(v), false, lookup); err != nil {
		t.Fatalf("valid cycle rejected: %v", err)
	}
	for name, cycle := range map[string][]graph.ArcID{
		"open":    {0, 2},
		"missing": {0, 7},
		"empty":   {},
	} {
		if err := checkAnswer(v, cycle, ratOf(v), false, lookup); err == nil {
			t.Errorf("%s cycle accepted", name)
		}
	}
	if err := checkAnswer(&serve.RatValue{Num: 5, Den: 2}, []graph.ArcID{0, 1}, ratOf(v), false, lookup); err == nil {
		t.Error("wrong value accepted")
	}
}

func ratOf(v *serve.RatValue) numeric.Rat { return numeric.NewRat(v.Num, v.Den) }

// rotateArcs is the arc list a rotation sends, materialized.
func rotateArcs(arcs []graph.Arc, rot int) []graph.Arc {
	return append(append([]graph.Arc(nil), arcs[rot:]...), arcs[:rot]...)
}

// TestCalibrationBurst drives the reference service for one burst: every
// reference op is answered and the host factors come out positive.
func TestCalibrationBurst(t *testing.T) {
	cal, err := startCalibService()
	if err != nil {
		t.Fatal(err)
	}
	defer cal.close()
	c, err := cal.burst()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.LatMs) != clients || len(c.LatMs[0]) == 0 || len(c.LatMs[1]) == 0 || c.CPUMs <= 0 {
		t.Fatalf("burst %+v", c)
	}
	f, err := hostFactors([]calibration{c}, 1)
	if err != nil || f.Mean <= 0 || f.P50 <= 0 || f.CPU != c.CPUMs/calibRefCPUMs {
		t.Fatalf("host factors %+v, %v", f, err)
	}
	if _, err := hostFactors([]calibration{c}, 1<<20); err == nil {
		t.Fatal("stretches longer than the bursts gave host factors")
	}
}

// TestHostFactorStretches checks the stretch arithmetic: stretches never
// span two clients, a short remainder is dropped, and each statistic has
// its own reference.
func TestHostFactorStretches(t *testing.T) {
	cs := []calibration{
		{LatMs: [][]float64{{1, 3}, {2, 2}}, CPUMs: 1},
		{LatMs: [][]float64{{5, 7, 100}, {4}}, CPUMs: 3},
	}
	// Client 0 runs 1 3 5 7 100, client 1 runs 2 2 4; in pairs:
	// (1,3) (5,7) and (2,2), so the stretches are 2, 6 and 2: median 2.
	f, err := hostFactors(cs, 2)
	if err != nil {
		t.Fatal(err)
	}
	mn, p50, cpu := 124.0/8, 2.0, 2.0 // computed at run time, as the factors are
	want := hostFactor{Mean: mn / calibRefMs, P50: p50 / calibRefMs, CPU: cpu / calibRefCPUMs}
	if f != want {
		t.Fatalf("host factors %+v, want %+v", f, want)
	}
}
