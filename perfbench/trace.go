package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer during the traced replay. Spans of one
// replayed op share Op; Parent is the index of the enclosing span, -1 for an
// op's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// shadowSpan names the one call the replay makes only to time a layer that
// mcmd runs inside another: graph.scc repeats the SCC pass every solve driver
// makes internally. It is timed and reported, but left out of coverage and
// of serve.unattributed_ms so that work is not counted twice.
const shadowSpan = "graph.scc"

// recorder keeps the spans and boundary counts of one traced replay in
// memory. The replay is sequential, so the open-span stack doubles as the
// parent for solver events arriving through the obs.Trace hooks. A nil
// *recorder records nothing, which is how the untraced replay runs the very
// same code.
type recorder struct {
	epoch  time.Time
	op     int
	spans  []span
	stack  []int
	arcs   []int // arc count of each open engine span, for pass·arc counts
	counts map[string]int64
	off    bool // paused: the replay is bringing its state up to the timed window
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: map[string]int64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) parent() int {
	if len(r.stack) == 0 {
		return -1
	}
	return r.stack[len(r.stack)-1]
}

// begin opens a span under the innermost open span and returns its index.
func (r *recorder) begin(name string) int {
	if r == nil || r.off {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: r.parent(), Start: r.now()})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// closed records a finished call that an event reports by its duration.
func (r *recorder) closed(name string, d time.Duration) {
	if r.off {
		return
	}
	end := r.now()
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: r.parent(), Start: end - int64(d), End: end})
}

// count adds to a boundary counter; a nil recorder ignores it.
func (r *recorder) count(name string, v int64) {
	if r != nil && !r.off {
		r.counts[name] += v
	}
}

// family is "ratio" inside a ratio driver span and "core" otherwise, which
// is how engine and certify spans are named after the driver that ran them.
func (r *recorder) family() string {
	for i := len(r.stack) - 1; i >= 0; i-- {
		if name := r.spans[r.stack[i]].Name; strings.HasPrefix(name, "ratio.") {
			return "ratio"
		} else if strings.HasPrefix(name, "core.") {
			return "core"
		}
	}
	return "core"
}

// tracer is the benchmark-owned obs.Trace installed through
// core.Options.Tracer: engine runs, certification and parametric probes
// become spans under the driver span that is open when they fire.
func (r *recorder) tracer() *obs.Trace {
	if r == nil {
		return nil
	}
	return &obs.Trace{
		OnSolverStart: func(ev obs.SolverStartEvent) {
			if r.off {
				return
			}
			name := "core.engine"
			if r.family() == "ratio" {
				name = "ratio.engine." + ev.Algorithm
			}
			r.begin(name)
			r.arcs = append(r.arcs, ev.Arcs)
		},
		OnSolverDone: func(ev obs.SolverDoneEvent) {
			if r.off {
				return
			}
			id := r.stack[len(r.stack)-1]
			r.end(id)
			r.arcs = r.arcs[:len(r.arcs)-1]
			if strings.HasPrefix(r.spans[id].Name, "core.") {
				r.count("core.iterations", int64(ev.Counts.Iterations))
				r.count("core.relaxations", int64(ev.Counts.Relaxations))
			}
		},
		OnCertify: func(ev obs.CertifyEvent) {
			r.closed(r.family()+".certify", ev.Duration)
		},
		OnProbe: func(ev obs.ProbeEvent) {
			r.closed("ratio.probe", ev.Duration)
			r.count("ratio.probes", 1)
			r.count("ratio.probe_passes", int64(ev.Passes))
			if ev.Negative {
				r.count("ratio.negative_probe_passes", int64(ev.Passes))
			}
			if len(r.arcs) > 0 {
				r.count("ratio.pass_arcs", int64(ev.Passes)*int64(r.arcs[len(r.arcs)-1]))
			}
		},
		OnDelta: func(ev obs.DeltaEvent) {
			r.count("core.dynsession.invalidated", int64(ev.Invalidated))
		},
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children count once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		curStart, curEnd := int64(0), int64(-1)
		flush := func() {
			if curEnd > curStart {
				covered += curEnd - curStart
			}
		}
		for _, k := range kids {
			cs, ce := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if ce <= cs {
				continue
			}
			if cs > curEnd {
				flush()
				curStart, curEnd = cs, ce
			} else if ce > curEnd {
				curEnd = ce
			}
		}
		flush()
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTimes sums self and total time per span name over all spans.
type layerTimes struct {
	self, total map[string]int64
}

func sumLayers(spans []span) layerTimes {
	lt := layerTimes{self: map[string]int64{}, total: map[string]int64{}}
	for i, st := range selfTimes(spans) {
		lt.self[spans[i].Name] += st
		lt.total[spans[i].Name] += spans[i].End - spans[i].Start
	}
	return lt
}

// attributed is the self time of every layer span: all but op roots and
// the shadow call.
func (lt layerTimes) attributed() int64 {
	var sum int64
	for name, v := range lt.self {
		if name != "op" && name != shadowSpan {
			sum += v
		}
	}
	return sum
}

// writeSpans writes the environment stamp and then one span per line.
func writeSpans(path string, env map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": env, "spans": len(spans)}); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
