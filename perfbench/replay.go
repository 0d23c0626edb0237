package main

// The traced run's in-process replay: the ops a workload sent to mcmd are
// replayed through the public calls mcmd makes for them, in mcmd's order,
// with one span per call. The same code runs untraced (nil recorder), which
// is what trace.overhead_frac compares against. A last pass times the whole
// handler, serve.Server.ServeHTTP, on the same ops.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ratio"
	"repro/internal/serve"
	"repro/internal/servecache"
)

const (
	// mcmd's result-cache size and default per-graph budget, mirrored by
	// the replay.
	cacheEntries = 4096
	solveBudget  = 30 * time.Second
	// A replay pass replays every timed op, or as many as fit in
	// replayPerPass, but at least replayMinOps.
	replayMinOps  = 4
	replayPerPass = 2 * time.Second
)

// replayer runs one op at a time against in-process state that starts fresh
// for every pass.
type replayer interface {
	// op replays timed op i; the returned duration excludes building the
	// body and checking the answer.
	op(i int) (time.Duration, error)
}

// newReplayer builds fresh state for a pass and brings it to where the
// served run's timed window began: caches filled, then the measured
// launch's warm-up ops (the clients·w.warm ops just before the first timed
// one) or session warm-up replayed, all unrecorded.
func newReplayer(w *workload, rec *recorder, firstTimed int) (replayer, error) {
	rec.pause(true)
	defer rec.pause(false)
	if w.solve != nil {
		r := &solveReplay{rec: rec, w: w.solve, first: firstTimed}
		opt := core.Options{Tracer: rec.tracer()}
		r.opt = opt
		r.cache = servecache.New(cacheEntries, opt.Tracer)
		r.plain = core.NewSession(opt)
		opt.Certify = true
		r.certified = core.NewSession(opt)
		for _, op := range w.solve.fill {
			if _, err := r.run(-1, op); err != nil {
				return nil, fmt.Errorf("replay fill: %w", err)
			}
		}
		for i := firstTimed - clients*w.warm; i < firstTimed; i++ {
			if _, err := r.run(-1, w.solve.op(i)); err != nil {
				return nil, fmt.Errorf("replay warm-up: %w", err)
			}
		}
		return r, nil
	}
	r := &deltaReplay{rec: rec}
	for _, s := range w.delta.scripts {
		ds := core.NewDynSession(graph.FromArcs(s.n, s.seed), core.Options{Certify: true, Tracer: rec.tracer()})
		if _, err := ds.Solve(); err != nil {
			return nil, fmt.Errorf("replay session: %w", err)
		}
		p := newDeltaPlayer(s)
		r.sessions = append(r.sessions, ds)
		r.players = append(r.players, p)
		for k := 0; k < w.warm; k++ {
			if _, err := r.apply(len(r.sessions) - 1); err != nil {
				return nil, fmt.Errorf("replay warm-up: %w", err)
			}
		}
	}
	for _, ds := range r.sessions {
		st := ds.Stats()
		r.hits0 += st.WarmHits
		r.misses0 += st.WarmMisses
	}
	return r, nil
}

// pause stops recording while the replay brings its state up to the timed
// window.
func (r *recorder) pause(on bool) {
	if r != nil {
		r.off = on
	}
}

// solveReplay mirrors serve.Server's /v1/solve path: decode the request,
// then per graph decode, fingerprint, cache.Do around the dispatch to
// core.Session or the mean/ratio driver; then encode the response.
type solveReplay struct {
	rec              *recorder
	w                *solveWorkload
	first            int
	opt              core.Options
	cache            *servecache.Cache
	plain, certified *core.Session
}

func (r *solveReplay) op(i int) (time.Duration, error) {
	return r.run(i, r.w.op(r.first+i))
}

func (r *solveReplay) run(i int, op solveOp) (time.Duration, error) {
	body := op.body()
	rec := r.rec
	start := time.Now()
	if rec != nil {
		rec.op = i
	}
	root := rec.begin("op")
	var req serve.SolveRequest
	id := rec.begin("serve.request_decode")
	err := json.Unmarshal(body, &req)
	rec.end(id)
	if err != nil {
		rec.end(root)
		return 0, err
	}
	results := make([]serve.GraphResult, len(req.Requests))
	for k := range req.Requests {
		results[k] = r.solveOne(&req.Requests[k])
		results[k].Index = k
	}
	id = rec.begin("serve.response_encode")
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", "  ")
	err = enc.Encode(serve.SolveResponse{Results: results})
	rec.end(id)
	rec.end(root)
	elapsed := time.Since(start)
	if err != nil {
		return elapsed, err
	}
	return elapsed, checkSolve(op, results)
}

func (r *solveReplay) solveOne(gr *serve.GraphRequest) (res serve.GraphResult) {
	rec := r.rec
	res.ID = gr.ID
	var g *graph.Graph
	var err error
	if gr.Text != "" {
		id := rec.begin("graph.read_text")
		g, err = graph.Read(strings.NewReader(gr.Text))
		rec.end(id)
		rec.count("graph.text_bytes", int64(len(gr.Text)))
	} else {
		id := rec.begin("graph.decode_json")
		g = new(graph.Graph)
		err = json.Unmarshal(gr.Graph, g)
		rec.end(id)
		rec.count("graph.json_bytes", int64(len(gr.Graph)))
	}
	if err != nil {
		res.Error = &serve.ErrorBody{Code: serve.CodeBadGraph, Message: err.Error()}
		return res
	}
	problem, algo := "mean", gr.Algorithm
	if gr.Problem == "ratio" {
		problem = "ratio"
	}
	if algo == "" {
		algo = "howard"
	}
	res.Algorithm = algo
	ctx, cancel := context.WithTimeout(context.Background(), solveBudget)
	defer cancel()

	id := rec.begin("graph.fingerprint")
	fp := g.Fingerprint()
	rec.end(id)
	id = rec.begin("graph.scc")
	graph.StronglyConnectedComponents(g)
	rec.end(id)

	key := servecache.Key{Graph: fp, Opt: servecache.Options{Problem: problem, Maximize: gr.Maximize,
		Algorithm: algo, Kernelize: gr.Kernelize, Certify: gr.Certify}}
	id = rec.begin("servecache.do")
	out, src, err := r.cache.Do(ctx, key, func(ctx context.Context) (*servecache.Result, error) {
		return r.dispatch(ctx, gr, g, problem, algo)
	})
	rec.end(id)
	res.Cached = src == servecache.SourceHit
	if err != nil {
		res.Error = &serve.ErrorBody{Code: serve.CodeInternal, Message: err.Error()}
		return res
	}
	res.OK = true
	res.Value = &serve.RatValue{Num: out.Value.Num(), Den: out.Value.Den(), Rat: out.Value.String(), Float: out.Value.Float64()}
	res.Cycle = out.Cycle
	res.Exact = out.Exact
	res.Certified = out.Certified
	counts := out.Counts
	res.Counts = &counts
	return res
}

// dispatch mirrors serve's: plain minimum-mean Howard goes through the
// warm-start session, everything else through its driver.
func (r *solveReplay) dispatch(ctx context.Context, gr *serve.GraphRequest, g *graph.Graph, problem, algoName string) (*servecache.Result, error) {
	rec := r.rec
	opt := r.opt
	opt.Certify = gr.Certify
	if problem == "mean" && algoName == "howard" && !gr.Maximize && !gr.Kernelize {
		sess := r.plain
		if gr.Certify {
			sess = r.certified
		}
		id := rec.begin("core.session")
		res, err := sess.SolveContext(ctx, g)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		return &servecache.Result{Value: res.Mean, Cycle: res.Cycle, Exact: res.Exact, Certified: res.Certificate != nil, Counts: res.Counts}, nil
	}
	opt, stop := opt.WithCancelContext(ctx)
	defer stop()
	if problem == "mean" {
		algo, err := core.ByName(algoName)
		if err != nil {
			return nil, err
		}
		id := rec.begin("core.driver")
		res, err := core.MinimumCycleMean(g, algo, opt)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		return &servecache.Result{Value: res.Mean, Cycle: res.Cycle, Exact: res.Exact, Certified: res.Certificate != nil, Counts: res.Counts}, nil
	}
	algo, err := ratio.ByName(algoName)
	if err != nil {
		return nil, err
	}
	id := rec.begin("ratio.driver")
	res, err := ratio.MinimumCycleRatio(g, algo, opt)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	return &servecache.Result{Value: res.Ratio, Cycle: res.Cycle, Exact: res.Exact, Certified: res.Certificate != nil, Counts: res.Counts}, nil
}

// deltaReplay mirrors serve's delta stream per line: decode, apply, solve,
// encode. Timed op i goes to client i mod 2's session, as the served run
// interleaves them.
type deltaReplay struct {
	rec            *recorder
	sessions       []*core.DynSession
	players        []*deltaPlayer
	hits0, misses0 int
}

func (r *deltaReplay) op(i int) (time.Duration, error) {
	if r.rec != nil {
		r.rec.op = i
	}
	return r.apply(i % len(r.sessions))
}

func (r *deltaReplay) apply(c int) (time.Duration, error) {
	rec := r.rec
	dreq, exp := r.players[c].next()
	line, err := json.Marshal(dreq)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	root := rec.begin("op")
	var dr serve.DeltaRequest
	id := rec.begin("serve.request_decode")
	err = json.Unmarshal(line, &dr)
	rec.end(id)
	if err != nil {
		rec.end(root)
		return 0, err
	}
	out := serve.DeltaResult{Seq: dr.Seq, Op: dr.Op, ID: -1}
	id = rec.begin("core.dynsession.apply")
	ids, err := r.sessions[c].Apply(toCoreDelta(dr))
	rec.end(id)
	if err == nil {
		out.Applied = true
		if len(ids) > 0 {
			out.ID = ids[0]
		}
		ctx, cancel := context.WithTimeout(context.Background(), solveBudget)
		id = rec.begin("core.dynsession.solve")
		res, serr := r.sessions[c].SolveContext(ctx)
		rec.end(id)
		cancel()
		if err = serr; err == nil {
			out.OK = true
			out.Value = &serve.RatValue{Num: res.Mean.Num(), Den: res.Mean.Den(), Rat: res.Mean.String(), Float: res.Mean.Float64()}
			out.Cycle = res.Cycle
			out.Certified = res.Certificate != nil
		}
	}
	if err != nil {
		out.Error = &serve.ErrorBody{Code: serve.CodeInternal, Message: err.Error()}
	}
	id = rec.begin("serve.response_encode")
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(out)
	rec.end(id)
	rec.end(root)
	elapsed := time.Since(start)
	if err != nil {
		return elapsed, err
	}
	return elapsed, r.players[c].check(exp, out)
}

// warmRatio is the sessions' warm-start share of component re-solves since
// the timed window began.
func (r *deltaReplay) warmRatio() float64 {
	var hits, misses int
	for _, ds := range r.sessions {
		st := ds.Stats()
		hits += st.WarmHits
		misses += st.WarmMisses
	}
	return share(int64(hits-r.hits0), int64(misses-r.misses0))
}

// toCoreDelta is serve's wire-to-engine delta conversion for the ops the
// scripts use.
func toCoreDelta(dr serve.DeltaRequest) core.Delta {
	switch dr.Op {
	case "insert-arc":
		return core.Delta{Op: core.DeltaInsertArc, From: graph.NodeID(dr.From), To: graph.NodeID(dr.To),
			Weight: dr.Weight, Transit: max(dr.Transit, 1)}
	case "delete-arc":
		return core.Delta{Op: core.DeltaDeleteArc, Arc: graph.ArcID(dr.Arc)}
	default:
		return core.Delta{Op: core.DeltaSetWeight, Arc: graph.ArcID(dr.Arc), Weight: dr.Weight}
	}
}

// handlerPass times serve.Server.ServeHTTP in-process on the first n timed
// ops, after the same fill and warm-up, and returns the total handler time.
// Session-delta sends each client's share of the ops as one delta stream
// body, so its time covers n deltas.
func handlerPass(w *workload, firstTimed, n int) (time.Duration, error) {
	srv := serve.NewServer(serve.Config{Workers: clients})
	call := func(method, path string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rr := httptest.NewRecorder()
		start := time.Now()
		srv.ServeHTTP(rr, req)
		return rr, time.Since(start)
	}
	solve := func(op solveOp) (time.Duration, error) {
		rr, d := call(http.MethodPost, "/v1/solve", op.body())
		if rr.Code != http.StatusOK {
			return d, fmt.Errorf("handler status %d", rr.Code)
		}
		var sr serve.SolveResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &sr); err != nil {
			return d, err
		}
		return d, checkSolve(op, sr.Results)
	}
	var total time.Duration
	if w.solve != nil {
		for _, op := range w.solve.fill {
			if _, err := solve(op); err != nil {
				return 0, fmt.Errorf("handler fill: %w", err)
			}
		}
		for i := firstTimed - clients*w.warm; i < firstTimed; i++ {
			if _, err := solve(w.solve.op(i)); err != nil {
				return 0, fmt.Errorf("handler warm-up: %w", err)
			}
		}
		for i := 0; i < n; i++ {
			d, err := solve(w.solve.op(firstTimed + i))
			if err != nil {
				return 0, fmt.Errorf("handler op %d: %w", i, err)
			}
			total += d
		}
		return total, nil
	}
	for c, s := range w.delta.scripts {
		rr, _ := call(http.MethodPost, "/v1/session", sessionBody(s))
		var cr serve.SessionCreateResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &cr); err != nil || !cr.Result.OK {
			return 0, fmt.Errorf("handler session: status %d", rr.Code)
		}
		writer, checker := newDeltaPlayer(s), newDeltaPlayer(s)
		stream := func(count int) (time.Duration, error) {
			var lines bytes.Buffer
			for k := 0; k < count; k++ {
				dr, _ := writer.next()
				if err := json.NewEncoder(&lines).Encode(dr); err != nil {
					return 0, err
				}
			}
			rr, d := call(http.MethodPost, "/v1/session/"+cr.SessionID+"/deltas", lines.Bytes())
			dec := json.NewDecoder(rr.Body)
			for k := 0; k < count; k++ {
				var res serve.DeltaResult
				if err := dec.Decode(&res); err != nil {
					return d, err
				}
				_, exp := checker.next()
				if err := checker.check(exp, res); err != nil {
					return d, err
				}
			}
			return d, nil
		}
		if _, err := stream(w.warm); err != nil {
			return 0, fmt.Errorf("handler warm-up: %w", err)
		}
		// Client c sent timed ops c, c+2, ...
		d, err := stream((n - c + clients - 1) / clients)
		if err != nil {
			return 0, fmt.Errorf("handler deltas: %w", err)
		}
		total += d
	}
	return total, nil
}
