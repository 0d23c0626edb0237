package main

// The four workloads' inputs and reference answers. Everything here is a
// pure function of the seed and is built before mcmd is launched; the
// daemon only ever sees the bodies these produce.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/ratio"
)

const (
	meanColdNodes, meanColdArcs = 4096, 16384
	ratioNodes, ratioArcs       = 512, 2048
	ratioMaxTransit             = 8
	hotNodes, hotArcs           = 1024, 4096
	deltaNodes, deltaArcs       = 2000, 8000

	// meanColdPool graphs are cycled by mean-cold; each use sends a fresh
	// rotation of the arc list, so no body is ever repeated.
	meanColdPool = 32
	// ratio-exact sends a distinct graph per request for the first
	// ratioGraphsPerSecond·seconds timed requests (the seed code completes
	// 7 to 12 a second on 2 vCPUs, calibration bursts included) plus every
	// warm-up request; only requests beyond that fall back to rotations of
	// those graphs.
	ratioGraphsPerSecond = 12
	// rotStride is odd and prime, so q·rotStride mod m visits every
	// rotation of a power-of-two arc count before any repeats.
	rotStride = 7919

	hotPool      = 64 // repeat-hot graphs; the cache holds 4096 entries
	hotBatch     = 4  // graphs per repeat-hot request
	variantEvery = 10 // every 10th repeat-hot graph is a weight-shifted variant

	// deltaHalf is the forward steps of a delta script; the inverses double
	// it. Edits cost the session very different amounts, and an edit can
	// change what later edits cost until it is undone, so the script undoes
	// every deltaSegment edits and is long enough that its mix, and so the
	// run's figures, vary little from seed to seed.
	deltaHalf    = 768
	deltaSegment = 16
	// deltaGraphSeed fixes the session graphs, as BENCH_session fixes its
	// seed graph: Howard's re-solve cost differs from graph to graph by more
	// than the benchmark's bounds, so --seed draws only the delta scripts.
	deltaGraphSeed = 424299
)

// ratioAlgos are the engines every ratio-exact request runs, one batch entry
// each.
var ratioAlgos = []string{"howard", "lawler", "sternbrocot", "bhk"}

// graphView is the arc list of one graph exactly as a request sent it.
type graphView struct {
	base  []graph.Arc
	rot   int   // request arc j is base[(j+rot) mod m]
	shift int64 // added to every weight
}

func (v graphView) arc(j int) graph.Arc {
	a := v.base[(j+v.rot)%len(v.base)]
	a.Weight += v.shift
	return a
}

// entryWant is what one batch entry must answer.
type entryWant struct {
	view  graphView
	value numeric.Rat
	ratio bool
}

// solveOp is one /v1/solve request: its body, in pieces that are sent
// without copying, and the answer every entry must give. keys name the
// graphs in it that must never be sent twice.
type solveOp struct {
	pieces [][]byte
	want   []entryWant
	keys   []string
}

func (op solveOp) body() []byte { return bytes.Join(op.pieces, nil) }

// solveWorkload is a /v1/solve workload. fill is sent once after every
// launch, before warm-up, to load the caches; op(i) is the i-th request of
// the run, warm-up included.
type solveWorkload struct {
	fill []solveOp
	op   func(i int) solveOp
}

// workload is one of the four traffic mixes; exactly one of solve and delta
// is set.
type workload struct {
	name string
	warm int // warm-up ops per client after every launch
	// refOps is the op's length in reference ops of the host calibration
	// (about 3 ms each on the reference host), capped so that a window
	// holds a dozen stretches of that many.
	refOps int
	solve  *solveWorkload
	delta  *deltaWorkload
}

var workloadNames = []string{"mean-cold", "ratio-exact", "repeat-hot", "session-delta"}

// buildWorkload generates a workload's inputs and reference answers for a
// timed window of the given length.
func buildWorkload(name string, seed int64, seconds int) (*workload, error) {
	switch name {
	case "mean-cold":
		sw, err := buildRotating(seed, meanColdNodes, meanColdArcs, 0, []string{""}, meanColdPool)
		return &workload{name: name, warm: 2, refOps: 20, solve: sw}, err
	case "ratio-exact":
		const warm = 1
		pool := setupRuns*clients*warm + ratioGraphsPerSecond*seconds
		sw, err := buildRotating(seed, ratioNodes, ratioArcs, ratioMaxTransit, ratioAlgos, pool)
		return &workload{name: name, warm: warm, refOps: 40, solve: sw}, err
	case "repeat-hot":
		sw, err := buildRepeatHot(seed)
		return &workload{name: name, warm: 8, refOps: 4, solve: sw}, err
	case "session-delta":
		dw, err := buildDeltaWorkload(seed)
		return &workload{name: name, warm: 8, refOps: 1, delta: dw}, err
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// sprand draws one SPRAND graph of the workload; maxTransit > 0 also draws
// transit times uniform in 1..maxTransit.
func sprand(seed int64, idx, n, m int, minW, maxW, maxTransit int64) (*graph.Graph, error) {
	g, err := gen.Sprand(gen.SprandConfig{N: n, M: m, MinWeight: minW, MaxWeight: maxW,
		Seed: uint64(seed)*1_000_003 + uint64(idx)})
	if err != nil || maxTransit == 0 {
		return g, err
	}
	rng := rand.New(rand.NewSource(seed*7_919 + int64(idx)))
	arcs := append([]graph.Arc(nil), g.Arcs()...)
	for i := range arcs {
		arcs[i].Transit = 1 + rng.Int63n(maxTransit)
	}
	return graph.FromArcs(n, arcs), nil
}

// inParallel runs f(0..n-1) on one goroutine per CPU and returns the first
// error. Reference solves dominate the benchmark's input generation.
func inParallel(n int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && errs[w] == nil; i = int(next.Add(1) - 1) {
				errs[w] = f(i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// refMean is λ* by certified Howard, cross-checked against Madani.
func refMean(g *graph.Graph) (numeric.Rat, error) {
	howard, _ := core.ByName("howard")
	madani, _ := core.ByName("madani")
	a, err := core.MinimumCycleMean(g, howard, core.Options{Certify: true})
	if err != nil {
		return numeric.Rat{}, fmt.Errorf("reference howard: %w", err)
	}
	b, err := core.MinimumCycleMean(g, madani, core.Options{})
	if err != nil {
		return numeric.Rat{}, fmt.Errorf("reference madani: %w", err)
	}
	if a.Certificate == nil || !a.Mean.Equal(b.Mean) {
		return numeric.Rat{}, fmt.Errorf("reference disagreement: howard %v, madani %v", a.Mean, b.Mean)
	}
	return a.Mean, nil
}

// refRatio is ρ* by certified Howard, cross-checked against BHK.
func refRatio(g *graph.Graph) (numeric.Rat, error) {
	howard, _ := ratio.ByName("howard")
	bhk, _ := ratio.ByName("bhk")
	a, err := ratio.MinimumCycleRatio(g, howard, core.Options{Certify: true})
	if err != nil {
		return numeric.Rat{}, fmt.Errorf("reference howard: %w", err)
	}
	b, err := ratio.MinimumCycleRatio(g, bhk, core.Options{})
	if err != nil {
		return numeric.Rat{}, fmt.Errorf("reference bhk: %w", err)
	}
	if a.Certificate == nil || !a.Ratio.Equal(b.Ratio) {
		return numeric.Rat{}, fmt.Errorf("reference disagreement: howard %v, bhk %v", a.Ratio, b.Ratio)
	}
	return a.Ratio, nil
}

// arcJSON appends one arc in the inline JSON form, transit omitted when 1.
func arcJSON(b []byte, a graph.Arc) []byte {
	b = append(b, `{"from":`...)
	b = strconv.AppendInt(b, int64(a.From), 10)
	b = append(b, `,"to":`...)
	b = strconv.AppendInt(b, int64(a.To), 10)
	b = append(b, `,"weight":`...)
	b = strconv.AppendInt(b, a.Weight, 10)
	if a.Transit != 1 {
		b = append(b, `,"transit":`...)
		b = strconv.AppendInt(b, a.Transit, 10)
	}
	return append(b, '}')
}

// rotatable is a pooled graph whose inline JSON arc list can be sent in any
// rotation without re-encoding: js holds ",{arc}" records back to back and
// off[j] is where arc j's record starts.
type rotatable struct {
	n    int
	arcs []graph.Arc
	js   []byte
	off  []int
	want numeric.Rat
}

func newRotatable(g *graph.Graph) *rotatable {
	r := &rotatable{n: g.NumNodes(), arcs: g.Arcs(), off: make([]int, g.NumArcs())}
	for j, a := range r.arcs {
		r.off[j] = len(r.js)
		r.js = append(r.js, ',')
		r.js = arcJSON(r.js, a)
	}
	return r
}

// rotated is the JSON arc list starting at arc rot, as two pieces.
func (r *rotatable) rotated(rot int) [][]byte {
	return [][]byte{r.js[r.off[rot]+1:], r.js[:r.off[rot]]}
}

// buildRotating builds a cold workload: request i sends pool graph i mod
// poolSize, rotated by a step unique to that request (none for the first
// poolSize requests), once per algorithm in algos ("" leaves the algorithm
// at its default). Rotation keeps λ* (or ρ*) but changes the fingerprint
// and the structural key, so every request misses the result cache and
// core.Session.
func buildRotating(seed int64, n, m int, maxTransit int64, algos []string, poolSize int) (*solveWorkload, error) {
	problem := ""
	minW := int64(1)
	if maxTransit > 0 {
		problem, minW = `"problem":"ratio",`, -5000
	}
	pool := make([]*rotatable, poolSize)
	err := inParallel(poolSize, func(p int) error {
		g, err := sprand(seed, p, n, m, minW, 10000, maxTransit)
		if err != nil {
			return err
		}
		pool[p] = newRotatable(g)
		if maxTransit > 0 {
			pool[p].want, err = refRatio(g)
		} else {
			pool[p].want, err = refMean(g)
		}
		if err != nil {
			return fmt.Errorf("pool graph %d: %w", p, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	op := func(i int) solveOp {
		p := pool[i%poolSize]
		rot := (i / poolSize) * rotStride % m
		view := graphView{base: p.arcs, rot: rot}
		arcs := p.rotated(rot)
		op := solveOp{keys: []string{fmt.Sprintf("%d/%d", i%poolSize, rot)}, pieces: [][]byte{[]byte(`{"requests":[`)}}
		for k, algo := range algos {
			head := fmt.Sprintf(`{"id":"op%d.%d",%s"certify":true,`, i, k, problem)
			if k > 0 {
				head = "," + head
			}
			if algo != "" {
				head += `"algorithm":"` + algo + `",`
			}
			head += `"graph":{"nodes":` + strconv.Itoa(p.n) + `,"arcs":[`
			op.pieces = append(op.pieces, []byte(head), arcs[0], arcs[1], []byte(`]}}`))
			op.want = append(op.want, entryWant{view: view, value: p.want, ratio: maxTransit > 0})
		}
		op.pieces = append(op.pieces, []byte(`]}`))
		return op
	}
	return &solveWorkload{op: op}, nil
}

// textEntry is one repeat-hot batch entry: the graph in the text format,
// every weight shifted by shift.
func textEntry(id string, n int, arcs []graph.Arc, shift int64) []byte {
	b := make([]byte, 0, 64+20*len(arcs))
	b = append(b, `{"id":"`...)
	b = append(b, id...)
	b = append(b, `","certify":true,"text":"p mcm `...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(arcs)), 10)
	b = append(b, `\n`...)
	for _, a := range arcs {
		b = append(b, "a "...)
		b = strconv.AppendInt(b, int64(a.From)+1, 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(a.To)+1, 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, a.Weight+shift, 10)
		b = append(b, `\n`...)
	}
	return append(b, `"}`...)
}

// mix64 is SplitMix64's finalizer, used to spread repeat-hot's graph picks.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// buildRepeatHot builds repeat-hot: batches of hotBatch text graphs. Graph
// slot s of the run is hot graph mix64(seed, s) mod hotPool, except every
// variantEvery-th slot, which sends that hot graph with every weight
// shifted by a constant unique to the slot: it misses the result cache,
// warm-starts core.Session (same structure) and must answer exactly λ*+c.
func buildRepeatHot(seed int64) (*solveWorkload, error) {
	type hot struct {
		arcs  []graph.Arc
		entry []byte
		want  numeric.Rat
	}
	pool := make([]hot, hotPool)
	err := inParallel(hotPool, func(h int) error {
		g, err := sprand(seed, 100+h, hotNodes, hotArcs, 1, 10000, 0)
		if err != nil {
			return err
		}
		want, err := refMean(g)
		if err != nil {
			return fmt.Errorf("hot graph %d: %w", h, err)
		}
		pool[h] = hot{arcs: g.Arcs(), entry: textEntry("h"+strconv.Itoa(h), hotNodes, g.Arcs(), 0), want: want}
		return nil
	})
	if err != nil {
		return nil, err
	}
	batch := func(entries [][]byte, want []entryWant, keys []string) solveOp {
		op := solveOp{keys: keys, want: want, pieces: [][]byte{[]byte(`{"requests":[`)}}
		for k, e := range entries {
			if k > 0 {
				op.pieces = append(op.pieces, []byte(","))
			}
			op.pieces = append(op.pieces, e)
		}
		op.pieces = append(op.pieces, []byte(`]}`))
		return op
	}
	sw := &solveWorkload{}
	for h := 0; h < hotPool; h += hotBatch {
		var entries [][]byte
		var want []entryWant
		for k := h; k < h+hotBatch; k++ {
			entries = append(entries, pool[k].entry)
			want = append(want, entryWant{view: graphView{base: pool[k].arcs}, value: pool[k].want})
		}
		sw.fill = append(sw.fill, batch(entries, want, nil))
	}
	sw.op = func(i int) solveOp {
		var entries [][]byte
		var want []entryWant
		var keys []string
		for k := 0; k < hotBatch; k++ {
			s := i*hotBatch + k
			h := int(mix64(uint64(seed)<<32^uint64(s)) % hotPool)
			if s%variantEvery != variantEvery-1 {
				entries = append(entries, pool[h].entry)
				want = append(want, entryWant{view: graphView{base: pool[h].arcs}, value: pool[h].want})
				continue
			}
			c := int64(1 + s/variantEvery)
			entries = append(entries, textEntry(fmt.Sprintf("v%d", s), hotNodes, pool[h].arcs, c))
			want = append(want, entryWant{view: graphView{base: pool[h].arcs, shift: c},
				value: pool[h].want.Add(numeric.FromInt(c))})
			keys = append(keys, fmt.Sprintf("%d+%d", h, c))
		}
		return batch(entries, want, keys)
	}
	return sw, nil
}
