package ratio

// The shared parametric negative-cycle oracle. Every ratio algorithm in this
// package reduces to one question — "does some cycle C satisfy
// den·w(C) − num·t(C) < 0, i.e. ρ(C) < num/den?" — and the oracle answers it
// for all of them: Lawler's bisection, Dinkelbach/Fox iteration, Howard's
// final certificate, Burns' initial potentials, Megiddo's parametric search,
// the Stern–Brocot mediant search and BHK's bisection. It provides pooled
// workspaces (feasible probes allocate nothing; a negative probe allocates
// only its witness), a cancellation checkpoint per pass, a ProbeEvent per
// probe when tracing is enabled, and an exact overflow pre-check that routes
// out-of-range inputs to ErrNumericRange instead of silently wrapping int64.
//
// A probe is pass-based Bellman–Ford from a virtual zero source. It exits
// early both ways: feasible at the first pass that lowers no distance, and
// negative at the first pass after which the parent-pointer graph holds a
// cycle, found by an O(n) epoch-stamped walk (every such cycle is negative).
// Waiting for pass n instead made each negative probe cost n·m relaxations,
// which dominated every exact ratio search. Tarjan's subtree disassembly
// (ncd.Tarjan) would find cycles sooner still, but it gives up the full
// m-arc passes that keep the counters (m·checks ≤ Relaxations), the
// cancellation checkpoint and TightCycle's converged distances uniform, and
// after the walk the probes already cost less than decoding the graph.
//
// Certification never runs on this loop: the certifier proves optimality
// with ncd.HasNegativeRatioCycle, a separate textbook Bellman–Ford, so a bug
// here cannot certify its own answers.

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// probeWS is the reusable scratch space of one oracle: Bellman–Ford state
// plus the tight-arc DFS state, pooled so repeated probes (a Lawler solve
// runs dozens) allocate nothing after the first.
type probeWS struct {
	dist   []int64
	parent []graph.ArcID
	// stamp and epoch mark the nodes of the per-pass parent-graph walk:
	// stamps above the epoch a walk started from were written by that walk,
	// so no per-pass clearing is needed.
	stamp  []int32
	epoch  int32
	color  []byte
	onPath []graph.ArcID
	stack  []dfsFrame
}

type dfsFrame struct {
	v   graph.NodeID
	arc int32
}

var probePool = sync.Pool{New: func() any { return new(probeWS) }}

func (ws *probeWS) grow(n int) {
	if cap(ws.dist) < n {
		ws.dist = make([]int64, n)
		ws.parent = make([]graph.ArcID, n)
		ws.stamp = make([]int32, n)
		ws.color = make([]byte, n)
	}
	ws.dist = ws.dist[:n]
	ws.parent = ws.parent[:n]
	ws.stamp = ws.stamp[:n]
	ws.color = ws.color[:n]
}

// oracle answers parametric feasibility probes on one fixed graph. It is not
// safe for concurrent use; create one per solve and Close it to return the
// workspace to the pool.
type oracle struct {
	g      *graph.Graph
	opt    core.Options
	counts *counter.Counts
	ws     *probeWS

	// absW and maxT are cached once so the per-probe overflow check is O(1).
	absW int64
	maxT int64

	// State of the most recent probe: when converged is true, ws.dist holds
	// the shortest distances under den·w − num·t for (lastNum, lastDen), the
	// input TightCycle needs.
	lastNum, lastDen int64
	converged        bool
}

// newOracle builds an oracle for g. opt supplies the cancellation token and
// tracer; counts, when non-nil, receives the same NegativeCycleChecks and
// Relaxations increments the private cores used to apply.
func newOracle(g *graph.Graph, opt core.Options, counts *counter.Counts) *oracle {
	minW, maxW := g.WeightRange()
	absW := maxW
	if -minW > absW {
		absW = -minW
	}
	var maxT int64
	for _, a := range g.Arcs() {
		t := a.Transit
		if t < 0 {
			t = -t
		}
		if t > maxT {
			maxT = t
		}
	}
	ws := probePool.Get().(*probeWS)
	ws.grow(g.NumNodes())
	return &oracle{g: g, opt: opt, counts: counts, ws: ws, absW: absW, maxT: maxT}
}

// Close returns the workspace to the pool. The oracle must not be used after
// Close, and slices returned by Dist become invalid.
func (o *oracle) Close() {
	if o.ws != nil {
		probePool.Put(o.ws)
		o.ws = nil
	}
}

// overflows bounds the probe arithmetic with the graph-dependent parts
// cached: per-arc magnitude den·absW + |num|·maxT times n+1 passes must stay
// inside 2^62 for the probe arithmetic to be exact.
func (o *oracle) overflows(num, den int64) bool {
	absP := num
	if absP < 0 {
		absP = -absP
	}
	if o.absW != 0 && den > (1<<62)/o.absW {
		return true
	}
	if o.maxT != 0 && absP > (1<<62)/o.maxT {
		return true
	}
	perArc := den*o.absW + absP*o.maxT
	if perArc < 0 {
		return true
	}
	n := int64(o.g.NumNodes()) + 1
	const safe = int64(1) << 62
	return perArc > safe/n
}

// Probe reports whether some cycle C has den·w(C) − num·t(C) < 0, i.e.
// ρ(C) < num/den (den > 0), returning one such cycle. The error is
// core.ErrCanceled when the run's cancellation token fired, or wraps
// ErrNumericRange when the scaled arithmetic cannot be carried out exactly
// in int64 for this graph.
func (o *oracle) Probe(num, den int64) (bool, []graph.ArcID, error) {
	counts := o.counts
	if counts != nil {
		counts.NegativeCycleChecks++
	}
	if o.overflows(num, den) {
		o.converged = false
		return false, nil, fmt.Errorf("%w: feasibility probe at λ = %d/%d would overflow", ErrNumericRange, num, den)
	}
	o.converged = false

	tr := o.opt.Tracer
	traced := tr.Enabled()
	var start time.Time
	if traced {
		start = time.Now()
	}

	g := o.g
	n := g.NumNodes()
	dist, parent := o.ws.dist, o.ws.parent
	for i := range dist {
		dist[i] = 0
	}
	for i := range parent {
		parent[i] = -1
	}
	arcs := g.Arcs()
	for pass := 1; pass <= n; pass++ {
		if o.opt.Canceled() {
			return false, nil, core.ErrCanceled
		}
		changed := false
		for id, a := range arcs {
			if counts != nil {
				counts.Relaxations++
			}
			w := den*a.Weight - num*a.Transit
			if nd := dist[a.From] + w; nd < dist[a.To] {
				dist[a.To] = nd
				parent[a.To] = graph.ArcID(id)
				changed = true
			}
		}
		if !changed {
			o.lastNum, o.lastDen, o.converged = num, den, true
			if traced {
				tr.Probe(obs.ProbeEvent{Num: num, Den: den, Passes: pass, Duration: time.Since(start)})
			}
			return false, nil, nil
		}
		if cycle := o.negativeParentCycle(num, den); cycle != nil {
			if traced {
				tr.Probe(obs.ProbeEvent{Num: num, Den: den, Negative: true, Passes: pass, Duration: time.Since(start)})
			}
			return true, cycle, nil
		}
	}
	// A distance still fell on pass n, so the parent graph holds a cycle and
	// the walk above must have returned it.
	return false, nil, fmt.Errorf("ratio: oracle at λ = %d/%d still relaxing after %d passes with no parent cycle", num, den, n)
}

// negativeParentCycle walks the parent-pointer graph of the current probe
// and returns, in forward order, the first cycle it closes whose scaled
// weight den·w − num·t is negative; nil when it closes none. Each node is
// visited once per call: a walk stops at a root or at a node an earlier walk
// of the same call already stamped, so the call is O(n) and allocates only
// the returned cycle.
//
// Every cycle of a Bellman–Ford parent graph is negative (the arc that closes
// it strictly lowered its head's distance while every other arc on it was
// tight or slack), so the weight test cannot fail; it is recomputed anyway
// so a witness is only ever reported on exact arithmetic.
func (o *oracle) negativeParentCycle(num, den int64) []graph.ArcID {
	ws := o.ws
	parent, stamp := ws.parent, ws.stamp
	arcs := o.g.Arcs()
	n := len(parent)
	if ws.epoch > math.MaxInt32-int32(n)-1 {
		clear(stamp)
		ws.epoch = 0
	}
	base := ws.epoch // stamps above base were written by this call
	for root := range parent {
		if stamp[root] > base {
			continue
		}
		ws.epoch++
		walk := ws.epoch
		v := graph.NodeID(root)
		for stamp[v] <= base {
			stamp[v] = walk
			p := parent[v]
			if p < 0 {
				break
			}
			v = arcs[p].From
		}
		if stamp[v] != walk || parent[v] < 0 {
			continue
		}
		// v lies on a cycle of the parent graph: measure it, then copy it out.
		length := 0
		var weight int64
		for u := v; ; {
			a := arcs[parent[u]]
			weight += den*a.Weight - num*a.Transit
			length++
			if u = a.From; u == v {
				break
			}
		}
		if weight >= 0 {
			continue
		}
		cycle := make([]graph.ArcID, length)
		for u, i := v, length-1; i >= 0; i-- {
			cycle[i] = parent[u]
			u = arcs[parent[u]].From
		}
		return cycle
	}
	return nil
}

// Dist returns the converged shortest distances of the most recent Probe
// (valid only when that probe reported no negative cycle, until the next
// Probe or Close). Burns' algorithm seeds its potentials from it.
func (o *oracle) Dist() []int64 {
	return o.ws.dist
}

// TightCycle searches the tight arcs of the most recent converged probe —
// those with dist[from] + den·w − num·t == dist[to] — for a cycle whose
// exact ratio equals num/den. Such a cycle exists if and only if
// ρ* = num/den, making TightCycle the oracle's equality test: Probe answers
// "ρ* < num/den?", TightCycle answers "ρ* = num/den?" for free, reusing the
// probe's distances instead of running a second Bellman–Ford.
//
// ok is false when no tight cycle of that ratio exists, or when the most
// recent probe did not converge at exactly (num, den).
func (o *oracle) TightCycle(num, den int64) ([]graph.ArcID, bool) {
	if !o.converged || o.lastNum != num || o.lastDen != den {
		return nil, false
	}
	g := o.g
	n := g.NumNodes()
	rho := numeric.NewRat(num, den)
	dist := o.ws.dist
	color := o.ws.color
	for i := range color {
		color[i] = 0
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	onPath := o.ws.onPath[:0]
	stack := o.ws.stack[:0]
	defer func() {
		o.ws.onPath = onPath[:0]
		o.ws.stack = stack[:0]
	}()
	for root := graph.NodeID(0); int(root) < n; root++ {
		if color[root] != white {
			continue
		}
		color[root] = gray
		stack = append(stack[:0], dfsFrame{v: root})
		onPath = onPath[:0]
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			out := g.OutArcs(f.v)
			advanced := false
			for int(f.arc) < len(out) {
				id := out[f.arc]
				f.arc++
				a := g.Arc(id)
				if dist[a.From]+den*a.Weight-num*a.Transit != dist[a.To] {
					continue
				}
				w := a.To
				switch color[w] {
				case gray:
					idx := -1
					for i := range stack {
						if stack[i].v == w {
							idx = i
							break
						}
					}
					var cycle []graph.ArcID
					for i := idx; i < len(stack)-1; i++ {
						cycle = append(cycle, onPath[i])
					}
					cycle = append(cycle, id)
					if r, ok := cycleRatio(g, cycle); ok && r.Equal(rho) {
						return cycle, true
					}
					// A zero-transit tight cycle is impossible after
					// checkInput, so this cannot happen; keep searching.
					continue
				case white:
					color[w] = gray
					onPath = append(onPath, id)
					stack = append(stack, dfsFrame{v: w})
					advanced = true
				}
				if advanced {
					break
				}
			}
			if advanced {
				continue
			}
			color[f.v] = black
			stack = stack[:len(stack)-1]
			if len(onPath) > 0 {
				onPath = onPath[:len(onPath)-1]
			}
		}
	}
	return nil, false
}
