// Package ncd provides negative cycle detection — the oracle at the heart
// of Lawler's algorithm (every binary-search probe asks "does G_λ contain
// a negative cycle?") and of the Equation 1 feasibility certificates. Three
// classic detectors are implemented behind one interface so their cost
// inside Lawler's algorithm can be ablated, in the spirit of the
// Cherkassky–Goldberg negative-cycle-detection study the paper's
// experimental methodology draws on:
//
//   - Basic: textbook Bellman–Ford, n full passes plus a check pass — the
//     cost model the paper's O(nm log(nW/ε)) Lawler bound assumes;
//   - EarlyExit: Bellman–Ford that stops at the first quiescent pass
//     (cheap on feasible probes, identical worst case);
//   - Tarjan: Bellman–Ford–Moore with a FIFO queue and subtree
//     disassembly — a relaxation that improves d(v) immediately detects a
//     cycle if v is an ancestor of the relaxing arc's tail in the parent
//     tree, and prunes v's entire stale subtree otherwise.
//
// All detectors take pre-scaled exact integer weights (callers evaluate
// q·w(e) − p·t(e) per probe), start from a virtual source connected to
// every node with weight 0, and return a negative cycle as arc IDs when
// one exists.
//
// HasNegativeRatioCycle is the certifiers' checker: the textbook early-exit
// Bellman–Ford on q·w(e) − p·t(e) with the weights computed inline, kept
// deliberately plain so it never shares code with the fast parametric
// oracle whose answers it checks.
package ncd

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
)

// ErrRange reports that HasNegativeRatioCycle's scaled arithmetic could
// overflow int64 for the given graph and parameter.
var ErrRange = errors.New("ncd: scaled weights exceed the exact int64 range")

// Method selects a detector.
type Method int

const (
	// EarlyExit is the default used by the solvers.
	EarlyExit Method = iota
	// Basic never exits early (the paper-faithful worst-case cost).
	Basic
	// Tarjan uses a FIFO queue with subtree disassembly.
	Tarjan
)

// String returns the lower-case method name.
func (m Method) String() string {
	switch m {
	case EarlyExit:
		return "earlyexit"
	case Basic:
		return "basic"
	case Tarjan:
		return "tarjan"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Detect reports whether the graph, under the given per-arc weights, has a
// negative cycle, returning one if so. len(weights) must equal
// g.NumArcs(). counts, when non-nil, accumulates relaxation counts.
func Detect(g *graph.Graph, weights []int64, method Method, counts *counter.Counts) ([]graph.ArcID, bool) {
	if len(weights) != g.NumArcs() {
		panic(fmt.Sprintf("ncd: %d weights for %d arcs", len(weights), g.NumArcs()))
	}
	if counts != nil {
		counts.NegativeCycleChecks++
	}
	switch method {
	case Basic:
		return bellmanFord(g, weights, false, counts)
	case EarlyExit:
		return bellmanFord(g, weights, true, counts)
	case Tarjan:
		return tarjanDetect(g, weights, counts)
	default:
		panic("ncd: unknown method")
	}
}

func bellmanFord(g *graph.Graph, weights []int64, earlyExit bool, counts *counter.Counts) ([]graph.ArcID, bool) {
	n := g.NumNodes()
	dist := make([]int64, n)
	parent := make([]graph.ArcID, n)
	for i := range parent {
		parent[i] = -1
	}
	arcs := g.Arcs()
	lastChanged := graph.NodeID(-1)
	for pass := 0; pass < n; pass++ {
		lastChanged = -1
		for id, a := range arcs {
			if counts != nil {
				counts.Relaxations++
			}
			if nd := dist[a.From] + weights[id]; nd < dist[a.To] {
				dist[a.To] = nd
				parent[a.To] = graph.ArcID(id)
				lastChanged = a.To
			}
		}
		if lastChanged == -1 {
			if earlyExit {
				return nil, false
			}
			// Basic mode: keep sweeping (no further changes can occur, but
			// the pass structure — and so the measured cost — matches the
			// textbook algorithm).
			continue
		}
	}
	if lastChanged == -1 {
		return nil, false
	}
	return collectCycle(g, parent, lastChanged), true
}

// HasNegativeRatioCycle reports whether some cycle C has
// q·w(C) − p·t(C) < 0, i.e. w(C)/t(C) < p/q for q > 0. It is plain
// Bellman–Ford from a virtual zero source that stops at the first pass with
// no improvement and otherwise runs all n passes. It fails with ErrRange,
// before counting any work, when some arc's |q·w| + |p·t| summed over n+1
// arcs could leave 2^62. counts, when non-nil, receives one
// NegativeCycleChecks and m Relaxations per pass.
func HasNegativeRatioCycle(g *graph.Graph, p, q int64, counts *counter.Counts) (bool, error) {
	n := g.NumNodes()
	var perArc int64
	for _, a := range g.Arcs() {
		mw, okW := absMul(q, a.Weight)
		mt, okT := absMul(p, a.Transit)
		if !okW || !okT || mw > math.MaxInt64-mt {
			return false, ErrRange
		}
		perArc = max(perArc, mw+mt)
	}
	const safe = int64(1) << 62
	if perArc > 0 && int64(n+1) > safe/perArc {
		return false, ErrRange
	}

	if counts != nil {
		counts.NegativeCycleChecks++
	}
	dist := make([]int64, n)
	arcs := g.Arcs()
	for pass := 0; pass < n; pass++ {
		changed := false
		for _, a := range arcs {
			if counts != nil {
				counts.Relaxations++
			}
			if nd := dist[a.From] + q*a.Weight - p*a.Transit; nd < dist[a.To] {
				dist[a.To] = nd
				changed = true
			}
		}
		if !changed {
			return false, nil
		}
	}
	return true, nil
}

// absMul returns |a·b| and whether it fits in int64.
func absMul(a, b int64) (int64, bool) {
	m, ok := numeric.CheckedMul(a, b)
	if !ok || m == math.MinInt64 {
		return 0, false
	}
	if m < 0 {
		m = -m
	}
	return m, true
}

// collectCycle walks parents from a node known to be on or downstream of a
// negative cycle and returns the cycle in forward order.
func collectCycle(g *graph.Graph, parent []graph.ArcID, from graph.NodeID) []graph.ArcID {
	v := from
	for i := 0; i < len(parent); i++ {
		v = g.Arc(parent[v]).From
	}
	start := v
	var rev []graph.ArcID
	for {
		id := parent[v]
		rev = append(rev, id)
		v = g.Arc(id).From
		if v == start {
			break
		}
	}
	cycle := make([]graph.ArcID, len(rev))
	for i, id := range rev {
		cycle[len(rev)-1-i] = id
	}
	return cycle
}

// tarjanDetect is Bellman–Ford–Moore with subtree disassembly: the parent
// pointers form a tree; when an arc (u, v) improves d(v), every node in
// v's current subtree holds a stale distance, so the subtree is detached
// (and its nodes dequeued logically); if u itself lies in that subtree the
// relaxation has closed a negative cycle, which is reported immediately —
// long before n passes complete.
func tarjanDetect(g *graph.Graph, weights []int64, counts *counter.Counts) ([]graph.ArcID, bool) {
	n := g.NumNodes()
	dist := make([]int64, n)
	parent := make([]graph.ArcID, n)
	// Intrusive child lists for subtree disassembly.
	childHead := make([]int32, n)
	childNext := make([]int32, n)
	childPrev := make([]int32, n)
	inTree := make([]bool, n) // has a parent (is not a root)
	for i := 0; i < n; i++ {
		parent[i] = -1
		childHead[i] = -1
		childNext[i] = -1
		childPrev[i] = -1
	}

	unlink := func(v graph.NodeID) {
		u := g.Arc(parent[v]).From
		if childPrev[v] >= 0 {
			childNext[childPrev[v]] = childNext[v]
		} else {
			childHead[u] = childNext[v]
		}
		if childNext[v] >= 0 {
			childPrev[childNext[v]] = childPrev[v]
		}
		childNext[v], childPrev[v] = -1, -1
	}
	link := func(v graph.NodeID) {
		u := g.Arc(parent[v]).From
		childNext[v] = childHead[u]
		childPrev[v] = -1
		if childHead[u] >= 0 {
			childPrev[childHead[u]] = int32(v)
		}
		childHead[u] = int32(v)
	}

	inQueue := make([]bool, n)
	queue := make([]graph.NodeID, 0, 4*n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		queue = append(queue, v)
		inQueue[v] = true
	}
	var scratch []graph.NodeID

	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if !inQueue[u] {
			continue
		}
		inQueue[u] = false
		for _, id := range g.OutArcs(u) {
			if counts != nil {
				counts.Relaxations++
			}
			a := g.Arc(id)
			nd := dist[u] + weights[id]
			if nd >= dist[a.To] {
				continue
			}
			if a.To == u {
				// A self-loop that improves its own node is a negative
				// cycle of length one.
				return []graph.ArcID{id}, true
			}
			v := a.To
			// Disassemble v's subtree; if u is inside it, we have a cycle:
			// the tree path v → … → u plus the arc (u, v).
			if inTree[v] || childHead[v] >= 0 {
				scratch = scratch[:0]
				scratch = append(scratch, v)
				cycleFound := false
				for si := 0; si < len(scratch); si++ {
					x := scratch[si]
					if x == u && si > 0 {
						cycleFound = true
						break
					}
					for c := childHead[x]; c >= 0; c = childNext[c] {
						scratch = append(scratch, graph.NodeID(c))
					}
				}
				if cycleFound {
					// Walk parents from u back to v.
					var rev []graph.ArcID
					for x := u; x != v; {
						pid := parent[x]
						rev = append(rev, pid)
						x = g.Arc(pid).From
					}
					cycle := make([]graph.ArcID, 0, len(rev)+1)
					for i := len(rev) - 1; i >= 0; i-- {
						cycle = append(cycle, rev[i])
					}
					return append(cycle, id), true
				}
				// Detach the stale subtree (children become roots; they
				// will be fixed up when re-relaxed).
				for _, x := range scratch[1:] {
					unlink(x)
					parent[x] = -1
					inTree[x] = false
					inQueue[x] = false // stale entries are skipped
				}
			}
			if inTree[v] {
				unlink(v)
			}
			dist[v] = nd
			parent[v] = id
			inTree[v] = true
			link(v)
			if !inQueue[v] {
				inQueue[v] = true
				queue = append(queue, v)
			}
		}
		// Compact the queue occasionally to bound memory.
		if qi > 4*n && qi*2 > len(queue) {
			live := queue[qi+1:]
			queue = append(queue[:0], live...)
			qi = -1
		}
	}
	return nil, false
}
