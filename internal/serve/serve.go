// Package serve implements the batch solve service behind cmd/mcmd: an
// HTTP/JSON front end that routes graphs through the internal/core and
// internal/ratio drivers with per-request deadlines, cooperative
// cancellation, warm-started Session reuse for repeat topologies, and a
// bounded worker pool with explicit backpressure.
//
// Concurrency model. Admission and execution are two separate token pools:
// a request's graphs are admitted all-or-nothing against Workers+QueueDepth
// admission tokens (a full queue answers 429 with Retry-After, before any
// solve work starts), and each admitted graph then occupies one of Workers
// execution tokens while it actually solves. Goroutines are therefore
// bounded by Workers+QueueDepth regardless of offered load. Shutdown is a
// drain: new requests answer 503 while every in-flight batch runs to
// completion (see Drain), which is what lets cmd/mcmd exit cleanly on
// SIGTERM without dropping accepted work.
//
// docs/SERVING.md documents the wire schema, the error-code table, and the
// backpressure and drain semantics.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/ratio"
	"repro/internal/servecache"
)

// Config tunes a Server. The zero value of every field selects a sensible
// default (see withDefaults).
type Config struct {
	// Workers bounds concurrently executing solves; default runtime.NumCPU().
	Workers int
	// QueueDepth bounds admitted-but-not-yet-executing graphs beyond
	// Workers; default 4×Workers. Admission beyond Workers+QueueDepth
	// answers 429.
	QueueDepth int
	// MaxBatch bounds graphs per buffered request; default 64.
	MaxBatch int
	// MaxStreamBatch bounds graphs per NDJSON streaming request; default
	// 1<<20. Streaming requests pipeline through a bounded admission window
	// instead of being admitted all-or-nothing, so the limit can be far
	// larger than MaxBatch without unbounded memory.
	MaxStreamBatch int
	// CacheEntries bounds the content-addressed result cache (stored
	// results, LRU-evicted); default 4096. See NoCache to disable.
	CacheEntries int
	// NoCache disables the result cache entirely: every request solves.
	NoCache bool
	// MaxBodyBytes bounds the request body; default 8 MiB. Larger bodies
	// answer 413 without being read further.
	MaxBodyBytes int64
	// DefaultTimeout is the per-graph solve budget when the request does not
	// set one; default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested budgets; default 2m.
	MaxTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses; default 1s.
	RetryAfter time.Duration
	// MaxSessions bounds live /v1/session sessions; default 64. Creation
	// beyond the cap answers 429 session_limit.
	MaxSessions int
	// SessionTTL is how long an idle session (no solve, no delta, no open
	// stream) survives before lazy expiry; default 10m.
	SessionTTL time.Duration
	// Metrics aggregates solver-level events (per-algorithm counters,
	// duration histograms); created internally when nil and exposed on
	// /debug/vars either way.
	Metrics *obs.Metrics
	// Tracer, when non-nil, additionally receives every solver event (e.g.
	// a log tracer); fanned in alongside Metrics.
	Tracer *obs.Trace
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxStreamBatch <= 0 {
		c.MaxStreamBatch = 1 << 20
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 10 * time.Minute
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	return c
}

// Server is the batch solve service. Create with NewServer; it implements
// http.Handler and mounts /v1/solve, /healthz, /debug/vars, and
// /debug/pprof/ on its internal mux.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	baseOpt core.Options // tracer wired once; per-request fields copied in

	// sessions are the warm-start caches for the Howard mean hot path, one
	// per certify flavor so cached policies and certificates never mix.
	sessionPlain     *core.Session
	sessionCertified *core.Session

	// cache is the content-addressed result cache (fingerprint + options →
	// stored outcome, with singleflight dedup); nil when Config.NoCache.
	// Consulted after decode and before any worker slot, so hits and merged
	// duplicates never occupy a worker.
	cache *servecache.Cache

	admit   chan struct{} // admission tokens: Workers+QueueDepth
	workers chan struct{} // execution tokens: Workers

	metrics serverMetrics

	// sessions is the /v1/session registry (see session.go); sessionSeq
	// mints IDs. Session state lives outside the result cache on purpose:
	// a mutable graph's intermediate fingerprints must never be served to,
	// or poisoned by, the content-addressed /v1/solve path.
	sessMu     sync.Mutex
	sessions   map[string]*sessionEntry
	sessionSeq atomic.Int64

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	// drainCh is closed (once) when Drain begins; long-lived session delta
	// streams select on it so shutdown reaches them mid-conversation — they
	// emit their terminal frame and return instead of wedging the drain.
	drainCh   chan struct{}
	drainOnce sync.Once

	// testHookSolving, when non-nil, runs inside the worker slot just before
	// the solver starts; tests use it to hold workers busy deterministically
	// (queue saturation, drain ordering, deadline expiry mid-solve).
	testHookSolving func(ctx context.Context)
}

// NewServer builds a ready-to-serve Server from cfg.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		admit:    make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		workers:  make(chan struct{}, cfg.Workers),
		sessions: make(map[string]*sessionEntry),
		drainCh:  make(chan struct{}),
	}
	tracer := cfg.Metrics.Tracer()
	if cfg.Tracer != nil {
		tracer = obs.Multi(tracer, cfg.Tracer)
	}
	s.baseOpt = core.Options{Tracer: tracer}
	if !cfg.NoCache {
		s.cache = servecache.New(cfg.CacheEntries, tracer)
	}
	sessOpt := s.baseOpt
	s.sessionPlain = core.NewSession(sessOpt)
	sessOpt.Certify = true
	s.sessionCertified = core.NewSession(sessOpt)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/session", s.handleSessionCreate)
	s.mux.HandleFunc("/v1/session/{id}", s.handleSessionByID)
	s.mux.HandleFunc("/v1/session/{id}/deltas", s.handleSessionDeltas)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/debug/vars", s.handleVars)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Metrics returns the solver-level collector (also on /debug/vars).
func (s *Server) Metrics() *obs.Metrics { return s.cfg.Metrics }

// SessionStats returns the warm-start cache counters of the plain and
// certified Howard sessions.
func (s *Server) SessionStats() (plain, certified core.SessionStats) {
	return s.sessionPlain.Stats(), s.sessionCertified.Stats()
}

// enter registers one in-flight request unless the server is draining.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Drain stops admitting new requests (they answer 503) and waits for every
// in-flight request to complete, or for ctx to expire. Open session delta
// streams are told first (drainCh): each emits its terminal frame with
// "draining": true and returns, so a long-lived stream never wedges the
// drain. Safe to call more than once. cmd/mcmd calls it on SIGTERM/SIGINT
// before exiting.
func (s *Server) Drain(ctx context.Context) error {
	// Close the drain signal before flipping the 503 gate: a stream that
	// observes drainCh must be able to finish its in-flight write, and any
	// admission racing with the flip still lands in the WaitGroup we wait on.
	s.drainOnce.Do(func() { close(s.drainCh) })
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with requests in flight: %w", ctx.Err())
	}
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// tryAdmit acquires n admission tokens without blocking; all or nothing.
func (s *Server) tryAdmit(n int) bool {
	for i := 0; i < n; i++ {
		select {
		case s.admit <- struct{}{}:
		default:
			for j := 0; j < i; j++ {
				<-s.admit
			}
			return false
		}
	}
	return true
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes a request-level error body with its mapped status.
func writeError(w http.ResponseWriter, code, message string) {
	writeJSON(w, httpStatusFor(code), errorResponse{Error: ErrorBody{Code: code, Message: message}})
}

// handleHealth answers readiness: 200 while serving, 503 while draining.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleVars exposes the serve- and solver-level metrics as one JSON tree.
// The server deliberately keeps its own /debug/vars handler instead of the
// process-global expvar registry so several Servers (tests, embedded use)
// never fight over expvar's forbid-duplicate-names rule.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	vars := map[string]any{
		"serve":    s.metrics.Snapshot(),
		"solver":   s.cfg.Metrics.Snapshot(),
		"sessions": s.sessionVars(),
		"runtime":  runtimeVars(),
	}
	if s.cache != nil {
		vars["cache"] = s.cache.Stats()
	}
	writeJSON(w, http.StatusOK, vars)
}

// runtimeVars reports process memory and scheduler gauges; the sustained-
// load harness polls these to verify the streaming path's bounded-RSS claim.
func runtimeVars() map[string]any {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]any{
		"heap_alloc_bytes":  ms.HeapAlloc,
		"heap_sys_bytes":    ms.HeapSys,
		"total_alloc_bytes": ms.TotalAlloc,
		"num_gc":            ms.NumGC,
		"goroutines":        runtime.NumGoroutine(),
	}
}

// CacheStats returns the result-cache counters and whether the cache is
// enabled at all.
func (s *Server) CacheStats() (servecache.Stats, bool) {
	if s.cache == nil {
		return servecache.Stats{}, false
	}
	return s.cache.Stats(), true
}

// handleSolve is POST /v1/solve: decode, admit, fan out, join, answer.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, CodeMethodNotAllowed, "use POST")
		return
	}
	if !s.enter() {
		s.metrics.draining.Add(1)
		writeError(w, CodeDraining, "server is draining")
		return
	}
	defer s.inflight.Done()
	s.metrics.requests.Add(1)
	start := time.Now()

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req SolveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.metrics.bodyTooLarge.Add(1)
			writeError(w, CodeBodyTooLarge, fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		s.metrics.badRequest.Add(1)
		writeError(w, CodeBadRequest, "malformed JSON body: "+err.Error())
		return
	}
	if len(req.Requests) == 0 {
		s.metrics.badRequest.Add(1)
		writeError(w, CodeBadRequest, `empty batch: "requests" must carry at least one graph`)
		return
	}
	stream := wantsStream(r)
	limit := s.cfg.MaxBatch
	if stream {
		limit = s.cfg.MaxStreamBatch
	}
	if len(req.Requests) > limit {
		s.metrics.badRequest.Add(1)
		writeError(w, CodeBatchTooLarge, fmt.Sprintf("batch of %d exceeds the %d-graph limit", len(req.Requests), limit))
		return
	}
	if stream {
		s.streamSolve(w, r, &req, start)
		return
	}

	// Backpressure: the whole batch is admitted atomically or not at all, so
	// a half-admitted batch can never wedge the queue.
	if !s.tryAdmit(len(req.Requests)) {
		s.metrics.queueFull.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeError(w, CodeQueueFull, "solve queue is full; retry later")
		return
	}

	results := make([]GraphResult, len(req.Requests))
	var wg sync.WaitGroup
	for i := range req.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-s.admit }() // release this graph's admission token
			results[i] = s.solveOne(r.Context(), &req, &req.Requests[i])
			results[i].Index = i
		}(i)
	}
	wg.Wait()

	s.metrics.ok.Add(1)
	s.metrics.requestDuration.Observe(time.Since(start))
	writeJSON(w, http.StatusOK, SolveResponse{Results: results})
}

// wantsStream reports whether the client asked for the NDJSON streaming
// response variant (Accept: application/x-ndjson or ?stream=1).
func wantsStream(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "1" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// decodeGraph materializes one request entry's graph, rejecting oversized
// dimensions before any index allocation (graph.Read and graph.DecodeJSON
// both enforce graph.MaxDim).
func decodeGraph(gr *GraphRequest) (*graph.Graph, *ErrorBody) {
	switch {
	case gr.Text != "" && len(gr.Graph) > 0:
		return nil, &ErrorBody{Code: CodeBadGraph, Message: `exactly one of "text" and "graph" may be set`}
	case gr.Text != "":
		g, err := graph.Read(strings.NewReader(gr.Text))
		if err != nil {
			return nil, &ErrorBody{Code: CodeBadGraph, Message: err.Error()}
		}
		return g, nil
	case len(gr.Graph) > 0:
		g, err := graph.DecodeJSON(gr.Graph)
		if err != nil {
			return nil, &ErrorBody{Code: CodeBadGraph, Message: err.Error()}
		}
		return g, nil
	default:
		return nil, &ErrorBody{Code: CodeBadGraph, Message: `one of "text" and "graph" must be set`}
	}
}

// budget resolves the per-graph solve budget.
func (s *Server) budget(batch *SolveRequest, gr *GraphRequest) time.Duration {
	ms := gr.DeadlineMillis
	if ms <= 0 {
		ms = batch.DeadlineMillis
	}
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// solveOne runs one graph through decode, cache, queue, and solver, and
// shapes the outcome. It never panics (the drivers' panic-free boundary
// converts numeric overflow into typed errors) and never returns an empty
// success.
func (s *Server) solveOne(ctx context.Context, batch *SolveRequest, gr *GraphRequest) (res GraphResult) {
	res.ID = gr.ID
	s.metrics.graphs.Add(1)
	start := time.Now()
	defer func() {
		elapsed := time.Since(start)
		res.ElapsedMillis = float64(elapsed) / 1e6
		s.metrics.solveDuration.Observe(elapsed)
		if res.Error != nil {
			s.metrics.graphErrors.Add(1)
			if res.Error.Code == CodeDeadlineExceeded {
				s.metrics.deadlines.Add(1)
			}
		} else {
			s.metrics.graphOK.Add(1)
		}
	}()

	g, errBody := decodeGraph(gr)
	if errBody != nil {
		res.Error = errBody
		return res
	}
	problem, algoName, errBody := resolveRequest(gr)
	if errBody != nil {
		res.Error = errBody
		return res
	}
	res.Algorithm = algoName

	ctx, cancel := context.WithTimeout(ctx, s.budget(batch, gr))
	defer cancel()

	if s.cache == nil {
		out, err := s.solveWorker(ctx, gr, g, problem, algoName)
		fillOutcome(&res, out, err)
		return res
	}

	// Cache lookup happens before any worker slot: a hit costs no solve
	// capacity, and N concurrent identical requests merge onto one solve
	// (singleflight). Failed or canceled solves are never stored, so a
	// mid-solve deadline expiry cannot poison the key for later requests.
	key := servecache.Key{Graph: g.Fingerprint(), Opt: servecache.Options{
		Problem:       problem,
		Maximize:      gr.Maximize,
		Algorithm:     algoName,
		Kernelize:     gr.Kernelize,
		Certify:       gr.Certify,
		ApproxEpsilon: gr.ApproxEpsilon,
		ApproxMode:    gr.ApproxMode, // canonicalized by resolveRequest
		ApproxSharpen: gr.ApproxSharpen,
	}}
	out, src, err := s.cache.Do(ctx, key, func(ctx context.Context) (*servecache.Result, error) {
		return s.solveWorker(ctx, gr, g, problem, algoName)
	})
	res.Cached = src == servecache.SourceHit
	fillOutcome(&res, out, err)
	return res
}

// resolveRequest validates the problem/algorithm pair and resolves the
// defaults, before any admission, cache, or solve work.
func resolveRequest(gr *GraphRequest) (problem, algoName string, errBody *ErrorBody) {
	algoName = gr.Algorithm
	hasApprox := gr.ApproxEpsilon != 0 || gr.ApproxMode != "" || gr.ApproxSharpen
	if algoName == "" {
		if hasApprox {
			algoName = "approx"
		} else {
			algoName = "howard"
		}
	}
	if algoName == "approx" {
		if gr.Problem == "ratio" {
			return "", "", &ErrorBody{Code: CodeBadRequest, Message: `the "approx" algorithm solves "problem": "mean" only`}
		}
		mode, err := core.CanonicalApproxMode(gr.ApproxMode)
		if err != nil {
			return "", "", &ErrorBody{Code: CodeBadRequest, Message: err.Error()}
		}
		// Canonicalize in place so the cache key (and the dispatch options)
		// see one spelling for the default mode.
		gr.ApproxMode = mode
	} else if hasApprox {
		return "", "", &ErrorBody{Code: CodeBadRequest, Message: fmt.Sprintf("approx_* options require \"algorithm\": \"approx\", got %q", algoName)}
	}
	switch gr.Problem {
	case "", "mean":
		if _, err := core.ByName(algoName); err != nil {
			return "", "", &ErrorBody{Code: CodeUnknownAlgorithm, Message: err.Error()}
		}
		return "mean", algoName, nil
	case "ratio":
		if _, err := ratio.ByName(algoName); err != nil {
			return "", "", &ErrorBody{Code: CodeUnknownAlgorithm, Message: err.Error()}
		}
		return "ratio", algoName, nil
	default:
		return "", "", &ErrorBody{Code: CodeBadRequest, Message: fmt.Sprintf("unknown problem %q (want \"mean\" or \"ratio\")", gr.Problem)}
	}
}

// solveWorker occupies an execution slot and runs the solve; this is the
// singleflight leader's path (and the only path with the cache disabled).
func (s *Server) solveWorker(ctx context.Context, gr *GraphRequest, g *graph.Graph, problem, algoName string) (*servecache.Result, error) {
	// Execution slot: waiting here is the queue; an expired budget while
	// queued is the same typed failure as one mid-solve.
	select {
	case s.workers <- struct{}{}:
		defer func() { <-s.workers }()
	case <-ctx.Done():
		return nil, fmt.Errorf("solve budget expired while queued: %w", ctx.Err())
	}
	// The select above picks at random when both the worker slot and the
	// expired budget are ready; never start a solve on a dead budget.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("solve budget expired while queued: %w", err)
	}
	if hook := s.testHookSolving; hook != nil {
		hook(ctx)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return s.dispatch(ctx, gr, g, problem, algoName)
}

// dispatch routes to the mean or ratio driver and shapes the outcome into
// the request-independent form the cache stores.
func (s *Server) dispatch(ctx context.Context, gr *GraphRequest, g *graph.Graph, problem, algoName string) (*servecache.Result, error) {
	opt := s.baseOpt
	opt.Kernelize = gr.Kernelize
	opt.Certify = gr.Certify
	opt.Approx = core.ApproxOptions{Epsilon: gr.ApproxEpsilon, Mode: gr.ApproxMode}
	opt.ApproxSharpen = gr.ApproxSharpen

	if problem == "mean" {
		// Hot path: minimizing with plain Howard reuses the session cache,
		// so repeat topologies warm-start instead of solving cold.
		if algoName == "howard" && !gr.Maximize && !gr.Kernelize {
			sess := s.sessionPlain
			if gr.Certify {
				sess = s.sessionCertified
			}
			r, err := sess.SolveContext(ctx, g)
			if err != nil {
				return nil, err
			}
			return meanOutcome(r), nil
		}
		algo, err := core.ByName(algoName)
		if err != nil {
			return nil, err
		}
		opt, stop := opt.WithCancelContext(ctx)
		defer stop()
		var r core.Result
		if gr.Maximize {
			r, err = core.MaximumCycleMean(g, algo, opt)
		} else {
			r, err = core.MinimumCycleMean(g, algo, opt)
		}
		if err != nil {
			return nil, err
		}
		return meanOutcome(r), nil
	}
	algo, err := ratio.ByName(algoName)
	if err != nil {
		return nil, err
	}
	opt, stop := opt.WithCancelContext(ctx)
	defer stop()
	var r ratio.Result
	if gr.Maximize {
		r, err = ratio.MaximumCycleRatio(g, algo, opt)
	} else {
		r, err = ratio.MinimumCycleRatio(g, algo, opt)
	}
	if err != nil {
		return nil, err
	}
	return &servecache.Result{
		Value:     r.Ratio,
		Cycle:     r.Cycle,
		Exact:     r.Exact,
		Approx:    !r.Exact,
		Certified: r.Certificate != nil,
		Counts:    r.Counts,
	}, nil
}

// meanOutcome shapes a core.Result into the cacheable form.
func meanOutcome(r core.Result) *servecache.Result {
	return &servecache.Result{
		Value:      r.Mean,
		Cycle:      r.Cycle,
		Exact:      r.Exact,
		Approx:     !r.Exact,
		ErrorBound: r.ErrorBound,
		Certified:  r.Certificate != nil,
		Counts:     r.Counts,
	}
}

// fillOutcome shapes a solve outcome (or its error) into the wire form.
func fillOutcome(res *GraphResult, out *servecache.Result, err error) {
	if err != nil {
		res.Error = solveErrorBody(err)
		return
	}
	res.OK = true
	res.Value = ratValue(out.Value)
	res.Cycle = out.Cycle
	res.Exact = out.Exact
	res.Approx = out.Approx
	res.ErrorBound = out.ErrorBound
	res.Certified = out.Certified
	counts := out.Counts
	res.Counts = &counts
}
