package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/serve"
)

// deltaStep is one edit of a delta script. Arcs are named by slot, not by
// ID: slots 0..m-1 are the seed arcs, later slots are arcs the script
// inserts. The session gives a re-inserted arc a fresh ID, so the player
// maps each slot to the ID its arc currently has.
type deltaStep struct {
	op   string // "set-weight", "insert-arc" or "delete-arc"
	slot int
	arc  graph.Arc // insert-arc: the arc; set-weight: Weight is the new weight
}

// deltaScript is one client's loop: segments of deltaSegment forward edits,
// ~60% weight edits on seed arcs, ~20% arc inserts and ~20% deletes of arcs
// the segment inserted, each followed by its inverses in reverse order, so
// every segment, and so every pass, returns the session to its seed graph.
// want[k] is λ* after step k, solved fresh.
type deltaScript struct {
	n     int
	seed  []graph.Arc
	steps []deltaStep
	want  []numeric.Rat
	// same[k] is the earlier step whose graph step k's graph equals (an
	// inverse restores the graph before its forward step), -1 for the seed
	// graph, or k for a graph no earlier step made.
	same []int
}

// deltaWorkload gives each of the two clients its own graph and script.
// The graphs are fixed (see deltaGraphSeed); the scripts come from --seed.
type deltaWorkload struct {
	scripts []*deltaScript
}

func buildDeltaWorkload(seed int64) (*deltaWorkload, error) {
	dw := &deltaWorkload{scripts: make([]*deltaScript, clients)}
	err := inParallel(clients, func(c int) error {
		g, err := sprand(deltaGraphSeed, 200+c, deltaNodes, deltaArcs, -10000, 10000, 0)
		if err != nil {
			return err
		}
		s := newDeltaScript(g, seed*31+int64(c), deltaHalf)
		if err := s.solveReferences(); err != nil {
			return fmt.Errorf("delta script %d: %w", c, err)
		}
		dw.scripts[c] = s
		return nil
	})
	return dw, err
}

// newDeltaScript draws forward steps on g, deltaSegment at a time, and
// follows each segment with its inverses.
func newDeltaScript(g *graph.Graph, seed int64, forward int) *deltaScript {
	rng := rand.New(rand.NewSource(seed))
	s := &deltaScript{n: g.NumNodes(), seed: append([]graph.Arc(nil), g.Arcs()...)}
	m := len(s.seed)
	next := m // slot of the next inserted arc
	randWeight := func() int64 { return rng.Int63n(20001) - 10000 }
	for drawn := 0; drawn < forward; {
		weights := make([]int64, m) // current seed-arc weights
		for j, a := range s.seed {
			weights[j] = a.Weight
		}
		arcs := map[int]graph.Arc{} // live inserted arcs by slot
		var live []int              // their slots, in insertion order
		var inverse []deltaStep
		base := len(s.steps) // the segment's first forward step
		for ; len(inverse) < deltaSegment && drawn < forward; drawn++ {
			var step, inv deltaStep
			switch p := rng.Intn(10); {
			case p < 6:
				j := rng.Intn(m)
				step = deltaStep{op: "set-weight", slot: j, arc: graph.Arc{Weight: randWeight()}}
				inv = deltaStep{op: "set-weight", slot: j, arc: graph.Arc{Weight: weights[j]}}
				weights[j] = step.arc.Weight
			case p < 8 || len(live) == 0:
				u := graph.NodeID(rng.Intn(s.n))
				v := graph.NodeID(rng.Intn(s.n - 1))
				if v >= u {
					v++
				}
				a := graph.Arc{From: u, To: v, Weight: randWeight(), Transit: 1}
				step = deltaStep{op: "insert-arc", slot: next, arc: a}
				inv = deltaStep{op: "delete-arc", slot: next}
				arcs[next] = a
				live = append(live, next)
				next++
			default:
				k := rng.Intn(len(live))
				slot := live[k]
				live = append(live[:k], live[k+1:]...)
				step = deltaStep{op: "delete-arc", slot: slot}
				inv = deltaStep{op: "insert-arc", slot: slot, arc: arcs[slot]}
				delete(arcs, slot)
			}
			s.same = append(s.same, len(s.steps))
			s.steps = append(s.steps, step)
			inverse = append(inverse, inv)
		}
		for k := len(inverse) - 1; k >= 0; k-- {
			if k == 0 {
				s.same = append(s.same, -1)
			} else {
				s.same = append(s.same, base+k-1)
			}
			s.steps = append(s.steps, inverse[k])
		}
	}
	return s
}

// graphsAfterEach calls yield with the graph after each step k, arcs in
// slot order, for every step that makes a graph no earlier step made.
func (s *deltaScript) graphsAfterEach(yield func(k int, g *graph.Graph) error) error {
	bySlot := map[int]graph.Arc{}
	for j, a := range s.seed {
		bySlot[j] = a
	}
	for k, st := range s.steps {
		switch st.op {
		case "set-weight":
			a := bySlot[st.slot]
			a.Weight = st.arc.Weight
			bySlot[st.slot] = a
		case "insert-arc":
			bySlot[st.slot] = st.arc
		case "delete-arc":
			delete(bySlot, st.slot)
		}
		if s.same[k] != k {
			continue
		}
		if err := yield(k, graph.FromArcs(s.n, sortedArcs(bySlot))); err != nil {
			return err
		}
	}
	return nil
}

// sortedArcs lists a slot- or ID-keyed arc map in key order.
func sortedArcs[K int | int64](m map[K]graph.Arc) []graph.Arc {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	arcs := make([]graph.Arc, len(keys))
	for i, k := range keys {
		arcs[i] = m[k]
	}
	return arcs
}

// solveReferences solves every distinct post-step graph fresh; a step that
// restores an earlier graph takes that graph's answer.
func (s *deltaScript) solveReferences() error {
	s.want = make([]numeric.Rat, len(s.steps))
	seedWant, err := refMean(graph.FromArcs(s.n, s.seed))
	if err != nil {
		return err
	}
	err = s.graphsAfterEach(func(k int, g *graph.Graph) error {
		var err error
		s.want[k], err = refMean(g)
		return err
	})
	for k, j := range s.same {
		switch {
		case j < 0:
			s.want[k] = seedWant
		case j != k:
			s.want[k] = s.want[j]
		}
	}
	return err
}

// deltaPlayer walks a script against one session, looping forever. It
// knows the IDs the session will assign (a fresh session numbers seed arcs
// 0..m-1 and every insert with the next unused ID), so it can write each
// request line before any answer arrives, and it holds the graph the session
// should hold, to check every answer against.
type deltaPlayer struct {
	script *deltaScript
	pos    int                 // steps played so far, over all loops
	ids    []int64             // slot -> current arc ID, -1 while deleted
	nextID int64               // ID of the session's next insert
	arcs   map[int64]graph.Arc // the session's live arcs by ID
}

// deltaExpect is what the answer to one played step must show.
type deltaExpect struct {
	step int   // index into the script
	id   int64 // the ID an insert must get, -1 otherwise
}

func newDeltaPlayer(s *deltaScript) *deltaPlayer {
	p := &deltaPlayer{script: s, nextID: int64(len(s.seed)), arcs: map[int64]graph.Arc{}}
	for j, a := range s.seed {
		p.ids = append(p.ids, int64(j))
		p.arcs[int64(j)] = a
	}
	return p
}

// next plays the next step into the model and returns it as sent on the
// wire, with what its answer must show.
func (p *deltaPlayer) next() (serve.DeltaRequest, deltaExpect) {
	k := p.pos % len(p.script.steps)
	st := p.script.steps[k]
	p.pos++
	dr := serve.DeltaRequest{Seq: int64(p.pos), Op: st.op}
	exp := deltaExpect{step: k, id: -1}
	for st.slot >= len(p.ids) {
		p.ids = append(p.ids, -1)
	}
	id := p.ids[st.slot]
	switch st.op {
	case "set-weight":
		dr.Arc, dr.Weight = id, st.arc.Weight
		a := p.arcs[id]
		a.Weight = st.arc.Weight
		p.arcs[id] = a
	case "insert-arc":
		dr.From, dr.To, dr.Weight, dr.Transit = int64(st.arc.From), int64(st.arc.To), st.arc.Weight, st.arc.Transit
		exp.id = p.nextID
		p.ids[st.slot] = p.nextID
		p.arcs[p.nextID] = st.arc
		p.nextID++
	case "delete-arc":
		dr.Arc = id
		delete(p.arcs, id)
		p.ids[st.slot] = -1
	}
	return dr, exp
}

// check verifies the session's answer to the step just played: the edit
// applied, an insert got the predicted ID, λ* matches the fresh solve, and
// the witness cycle exists in the model graph with exactly that mean.
func (p *deltaPlayer) check(exp deltaExpect, res serve.DeltaResult) error {
	if !res.OK || !res.Applied || res.Error != nil {
		return fmt.Errorf("delta %d (%s): not ok: %+v", res.Seq, res.Op, res.Error)
	}
	if exp.id >= 0 && res.ID != exp.id {
		return fmt.Errorf("delta %d: insert got ID %d, want %d", res.Seq, res.ID, exp.id)
	}
	if !res.Certified {
		return fmt.Errorf("delta %d: answer not certified", res.Seq)
	}
	return checkAnswer(res.Value, res.Cycle, p.script.want[exp.step], false, func(id int64) (graph.Arc, bool) {
		a, ok := p.arcs[id]
		return a, ok
	})
}

// checkAnswer verifies a returned value against its reference and the
// returned cycle against the graph that was sent: every arc exists, the arcs
// chain head to tail into a closed cycle, and its mean (or ratio) is exactly
// the value.
func checkAnswer(v *serve.RatValue, cycle []graph.ArcID, want numeric.Rat, isRatio bool, arc func(int64) (graph.Arc, bool)) error {
	if v == nil || v.Den <= 0 {
		return fmt.Errorf("no value")
	}
	got := numeric.NewRat(v.Num, v.Den)
	if !got.Equal(want) {
		return fmt.Errorf("value %v, want %v", got, want)
	}
	if len(cycle) == 0 {
		return fmt.Errorf("empty cycle")
	}
	var w, t int64
	for i, id := range cycle {
		a, ok := arc(int64(id))
		if !ok {
			return fmt.Errorf("cycle arc %d not in the graph sent", id)
		}
		next, ok := arc(int64(cycle[(i+1)%len(cycle)]))
		if !ok || a.To != next.From {
			return fmt.Errorf("cycle breaks after arc %d", id)
		}
		w += a.Weight
		if isRatio {
			t += a.Transit
		} else {
			t++
		}
	}
	if t <= 0 || !numeric.NewRat(w, t).Equal(want) {
		return fmt.Errorf("cycle has weight %d over %d, not %v", w, t, want)
	}
	return nil
}
