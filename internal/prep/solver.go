package prep

import (
	"errors"
	"math"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/ncd"
	"repro/internal/numeric"
)

// Solver errors. The kernelized drivers treat any SolveKernel failure as a
// signal to fall back to an unkernelized solve of the original component, so
// these are safety valves, not user-facing diagnostics.
var (
	// ErrSolverLimit means policy iteration hit its iteration cap.
	ErrSolverLimit = errors.New("prep: kernel solver iteration limit exceeded")
	// ErrSolverRange means the exact certification arithmetic would
	// overflow int64 for this kernel's weight/denominator magnitudes.
	ErrSolverRange = errors.New("prep: kernel values exceed the exact arithmetic range")
	// ErrSolverInput means the kernel is not strongly connected (some node
	// has no out-arc) — possible only through driver misuse.
	ErrSolverInput = errors.New("prep: kernel is not strongly connected")
)

// SolveKernel computes the exact minimum cycle ratio Σw(C)/Σt(C) of a
// strongly connected kernel graph whose arcs carry positive denominators in
// their Transit field — the form Kernelize produces for contracted Mean-mode
// kernels (t = original arc count). It is Howard's policy iteration in ratio
// form, identical in structure to internal/ratio's solver but self-contained
// so the core driver can use it without an import cycle.
//
// The returned cycle is in kernel arc IDs (expand with Kernel.ExpandCycle);
// the returned ratio is always exact: convergence is certified with an exact
// integer Bellman–Ford feasibility pass before returning.
func SolveKernel(g *graph.Graph, counts *counter.Counts) (numeric.Rat, []graph.ArcID, error) {
	n := g.NumNodes()
	if n == 0 || g.NumArcs() == 0 {
		return numeric.Rat{}, nil, ErrSolverInput
	}

	// The bias threshold must scale with the full magnitude of the bias
	// terms w − ρ·t, which is bounded by the weight scale times the transit
	// (denominator) range — a weight-only eps is drowned by float round-off
	// when kernel denominators are large (see ratio's ratioBiasEpsilon).
	minW, maxW := g.WeightRange()
	scale := math.Max(1, math.Max(math.Abs(float64(minW)), math.Abs(float64(maxW))))
	_, maxT := g.TransitRange()
	eps := 1e-10 * scale * math.Max(1, float64(maxT))

	// Initial policy: cheapest out-arc by weight.
	policy := make([]graph.ArcID, n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		policy[v] = -1
		best := int64(0)
		for _, id := range g.OutArcs(v) {
			if w := g.Arc(id).Weight; policy[v] < 0 || w < best {
				best = w
				policy[v] = id
			}
		}
		if policy[v] < 0 {
			return numeric.Rat{}, nil, ErrSolverInput
		}
	}

	gain := make([]numeric.Rat, n)
	gainRank := make([]int32, n)
	gainSet := make([]bool, n)
	cycleGains := make([]numeric.Rat, 0, 8)
	cycleSeq := make([]int32, n)
	d := make([]float64, n)
	childHead := make([]int32, n)
	childNext := make([]int32, n)
	queue := make([]graph.NodeID, 0, n)
	var bestCyc []graph.ArcID

	maxIter := 100*n + 1000
	for iter := 0; iter < maxIter; iter++ {
		if counts != nil {
			counts.Iterations++
		}

		// Value determination: per-basin gain and bias.
		cycleGains = cycleGains[:0]
		for i := range childHead {
			childHead[i] = -1
			gainSet[i] = false
		}
		for v := 0; v < n; v++ {
			u := g.Arc(policy[v]).To
			childNext[v] = childHead[u]
			childHead[u] = int32(v)
		}
		var (
			bestGain numeric.Rat
			haveBest bool
		)
		kernelPolicyCycles(g, policy, func(cycle []graph.ArcID) {
			if counts != nil {
				counts.CyclesExamined++
			}
			t := g.CycleTransit(cycle)
			if t <= 0 {
				return // impossible for Mean-mode kernels (t >= 1 per arc)
			}
			r := numeric.NewRat(g.CycleWeight(cycle), t)
			if !haveBest || r.Less(bestGain) {
				bestGain = r
				bestCyc = append(bestCyc[:0], cycle...)
				haveBest = true
			}
			rf := r.Float64()
			// Normalization node: smallest node on the cycle keeps its
			// previous bias (continuity; prevents bias oscillation).
			s := g.Arc(cycle[0]).From
			for _, id := range cycle {
				if from := g.Arc(id).From; from < s {
					s = from
				}
			}
			seq := int32(len(cycleGains))
			cycleGains = append(cycleGains, r)
			gain[s] = r
			cycleSeq[s] = seq
			gainSet[s] = true
			queue = append(queue[:0], s)
			for qi := 0; qi < len(queue); qi++ {
				u := queue[qi]
				for c := childHead[u]; c >= 0; c = childNext[c] {
					v := graph.NodeID(c)
					if gainSet[v] {
						continue
					}
					gainSet[v] = true
					gain[v] = r
					cycleSeq[v] = seq
					a := g.Arc(policy[v])
					d[v] = d[a.To] + float64(a.Weight) - rf*float64(a.Transit)
					queue = append(queue, v)
				}
			}
		})
		if !haveBest {
			return numeric.Rat{}, nil, ErrSolverLimit
		}
		ranks := numeric.Ranks(cycleGains)
		for v := 0; v < n; v++ {
			gainRank[v] = ranks[cycleSeq[v]]
		}

		// Policy improvement: lexicographic (exact gain, then float bias).
		improved := false
		for u := graph.NodeID(0); int(u) < n; u++ {
			curArc := g.Arc(policy[u])
			curRank := gainRank[curArc.To]
			curVal := d[curArc.To] + float64(curArc.Weight) - gain[curArc.To].Float64()*float64(curArc.Transit)
			bestArc := policy[u]
			bestRank := curRank
			bestVal := curVal
			for _, id := range g.OutArcs(u) {
				if counts != nil {
					counts.Relaxations++
				}
				a := g.Arc(id)
				switch rv := gainRank[a.To]; {
				case rv < bestRank:
					bestRank = rv
					bestVal = d[a.To] + float64(a.Weight) - gain[a.To].Float64()*float64(a.Transit)
					bestArc = id
				case rv == bestRank:
					if val := d[a.To] + float64(a.Weight) - gain[a.To].Float64()*float64(a.Transit); val < bestVal {
						bestVal = val
						bestArc = id
					}
				}
			}
			if bestArc == policy[u] {
				continue
			}
			if bestRank < curRank {
				policy[u] = bestArc
				improved = true
			} else if bestVal < curVal {
				policy[u] = bestArc
				if curVal-bestVal > eps {
					improved = true
				}
			}
		}

		if !improved {
			neg, err := ncd.HasNegativeRatioCycle(g, bestGain.Num(), bestGain.Den(), counts)
			if err != nil {
				return numeric.Rat{}, nil, ErrSolverRange
			}
			if !neg {
				cycle := make([]graph.ArcID, len(bestCyc))
				copy(cycle, bestCyc)
				return bestGain, cycle, nil
			}
			eps /= 2
		}
	}
	return numeric.Rat{}, nil, ErrSolverLimit
}

// kernelPolicyCycles finds the cycles of an out-degree-one policy graph;
// fn receives each cycle's arcs in forward order (the slice is reused).
func kernelPolicyCycles(g *graph.Graph, policy []graph.ArcID, fn func(cycle []graph.ArcID)) {
	n := len(policy)
	state := make([]int32, n)
	walkPos := make([]int32, n)
	var walk []graph.NodeID
	var cycle []graph.ArcID
	for root := 0; root < n; root++ {
		if state[root] != 0 {
			continue
		}
		walk = walk[:0]
		v := graph.NodeID(root)
		for state[v] == 0 {
			state[v] = 1
			walkPos[v] = int32(len(walk))
			walk = append(walk, v)
			v = g.Arc(policy[v]).To
		}
		if state[v] == 1 {
			start := walkPos[v]
			cycle = cycle[:0]
			for i := start; i < int32(len(walk)); i++ {
				cycle = append(cycle, policy[walk[i]])
			}
			fn(cycle)
		}
		for _, u := range walk {
			state[u] = 2
		}
	}
}
