package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/servecache"
)

// The sustained-load serving harness behind cmd/mcmbench -serve-load: it
// drives a real mcmd HTTP endpoint (self-hosted on a loopback listener, or
// an external -load-addr server) with a configurable concurrency, duration,
// and hit-ratio mix, and reports throughput plus latency histograms in the
// BENCH_serve.json shape. Self-hosted runs measure the result cache's
// effect directly — the identical workload against a cache-off and a
// cache-on server — and probe the NDJSON streaming path's bounded-memory
// claim with a batch 10× the buffered limit.

// ServeLoadConfig tunes the sustained-load suite.
type ServeLoadConfig struct {
	// Addr targets an already-running server ("host:port"). Empty self-hosts
	// a serve.Server pair (cache off/on) on loopback listeners.
	Addr string
	// Concurrency is the number of concurrent client workers; default 8.
	Concurrency int
	// Duration is the measured wall clock per scenario; default 3s.
	Duration time.Duration
	// HitRatio is the fraction of graphs drawn from the hot pool (repeated
	// content, cacheable); the rest are freshly generated. Default 0.9.
	HitRatio float64
	// BatchSize is the number of graphs per request; default 8.
	BatchSize int
	// HotGraphs is the hot pool size; default 16.
	HotGraphs int
	// N, M size every generated graph; default 384 nodes, 1536 arcs —
	// large enough that solver work (not HTTP/parse overhead) dominates a
	// cache miss.
	N, M int
	// Algorithm names the solver the load mix requests; default "lawler".
	// The default is deliberately not "howard": the serve layer's Session
	// warm-start already absorbs most of a repeated howard solve, so the
	// result cache's marginal win is only visible on solvers without a
	// warm-start shortcut — which is exactly the workload the cache is for.
	Algorithm string
	// Workers configures the self-hosted servers; default NumCPU.
	Workers int
	// Seed makes the workload reproducible.
	Seed uint64
	// SkipStreamProbe disables the streaming memory probe (it is
	// self-host-only: it reads runtime heap stats in-process).
	SkipStreamProbe bool
}

func (c ServeLoadConfig) withDefaults() ServeLoadConfig {
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	if c.HitRatio <= 0 {
		c.HitRatio = 0.9
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.HotGraphs <= 0 {
		c.HotGraphs = 16
	}
	if c.N <= 0 {
		c.N = 384
	}
	if c.M <= 0 {
		c.M = 4 * c.N
	}
	if c.Algorithm == "" {
		c.Algorithm = "lawler"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	return c
}

// ServeLoadScenario is one measured load run.
type ServeLoadScenario struct {
	Name        string  `json:"name"`
	NumCPU      int     `json:"num_cpu"` // of the load generator's host
	Requests    int64   `json:"requests"`
	Graphs      int64   `json:"graphs"`
	Errors      int64   `json:"errors"`
	Seconds     float64 `json:"seconds"`
	RequestsSec float64 `json:"requests_per_sec"`
	GraphsSec   float64 `json:"graphs_per_sec"`
	// Latency is the per-request histogram in the obs snapshot shape
	// (count, mean_ms, max_ms, le_* buckets).
	Latency map[string]any `json:"latency"`
	// Cache is the server's result-cache counters after the run
	// (self-hosted scenarios only).
	Cache *servecache.Stats `json:"cache,omitempty"`
}

// ServeStreamProbe compares peak in-process heap while answering the same
// batch — far beyond the buffered service limit — once buffered (the probe
// server's MaxBatch is raised to admit it) and once streamed. Both legs
// carry identical requests and identical solve work; only the response
// path differs, so the heap gap is exactly the buffered path's
// O(batch)-results footprint that streaming avoids. Bounded streaming
// memory means HeapRatio stays at or below ~1 while the batch is ≥10× the
// service's buffered limit.
type ServeStreamProbe struct {
	// Batch is the graphs per probe request; at least 10× BufferedLimit.
	Batch int `json:"batch"`
	// BufferedLimit is the service's default buffered batch cap.
	BufferedLimit    int     `json:"buffered_limit"`
	BufferedPeakHeap uint64  `json:"buffered_peak_heap_bytes"`
	StreamPeakHeap   uint64  `json:"stream_peak_heap_bytes"`
	HeapRatio        float64 `json:"heap_ratio"`
	StreamResults    int     `json:"stream_results"`
}

// ServeLoadReport is the BENCH_serve.json shape.
type ServeLoadReport struct {
	NumCPU      int                 `json:"num_cpu"`
	GoMaxProcs  int                 `json:"gomaxprocs"`
	Concurrency int                 `json:"concurrency"`
	DurationSec float64             `json:"duration_s"`
	HitRatio    float64             `json:"hit_ratio"`
	BatchSize   int                 `json:"batch_size"`
	GraphNodes  int                 `json:"graph_nodes"`
	GraphArcs   int                 `json:"graph_arcs"`
	Algorithm   string              `json:"algorithm"`
	Scenarios   []ServeLoadScenario `json:"scenarios"`
	// Speedup is cache-on vs cache-off graph throughput (self-hosted runs).
	Speedup float64 `json:"cache_speedup,omitempty"`
	// Stream is the bounded-memory probe (self-hosted runs).
	Stream *ServeStreamProbe `json:"stream,omitempty"`
}

// JSON renders the report indented.
func (r *ServeLoadReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// workload builds the request mix: a pre-rendered hot pool reused across
// requests (the cacheable fraction) and cold graphs generated on demand
// from a monotone seed, so no cold graph ever repeats — the cache-on leg's
// hit rate is exactly the configured HitRatio, never flattered by recycled
// misses. Cold generation runs inside the measured window on both legs
// alike, which dampens the reported speedup slightly (conservative).
type workload struct {
	cfg  ServeLoadConfig
	hot  []string
	seed atomic.Uint64
}

func renderSprand(cfg ServeLoadConfig, seed uint64) (string, error) {
	g, err := gen.Sprand(gen.SprandConfig{
		N: cfg.N, M: cfg.M, MinWeight: -1000, MaxWeight: 1000, Seed: seed,
	})
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		return "", err
	}
	return buf.String(), nil
}

func newWorkload(cfg ServeLoadConfig) (*workload, error) {
	w := &workload{cfg: cfg}
	for i := 0; i < cfg.HotGraphs; i++ {
		text, err := renderSprand(cfg, cfg.Seed+uint64(i))
		if err != nil {
			return nil, err
		}
		w.hot = append(w.hot, text)
	}
	return w, nil
}

// coldText renders a never-before-seen graph.
func (w *workload) coldText() (string, error) {
	return renderSprand(w.cfg, w.cfg.Seed+1_000_000+w.seed.Add(1))
}

// batch builds one request body: BatchSize graphs, HitRatio of them drawn
// from the hot pool, the rest fresh.
func (w *workload) batch(rng *rand.Rand) (serve.SolveRequest, error) {
	req := serve.SolveRequest{Requests: make([]serve.GraphRequest, w.cfg.BatchSize)}
	for i := range req.Requests {
		var text string
		if rng.Float64() < w.cfg.HitRatio {
			text = w.hot[rng.Intn(len(w.hot))]
		} else {
			var err error
			if text, err = w.coldText(); err != nil {
				return req, err
			}
		}
		req.Requests[i] = serve.GraphRequest{Text: text, Algorithm: w.cfg.Algorithm}
	}
	return req, nil
}

// selfHosted binds a serve.Server to a loopback listener and returns its
// base URL plus a shutdown func.
func selfHosted(cfg ServeLoadConfig, noCache bool) (*serve.Server, string, func(), error) {
	srv := serve.NewServer(serve.Config{
		Workers: cfg.Workers,
		// The admission window must cover the buffered stream-probe batch
		// (64, all-or-nothing) plus the load mix; 256 keeps 429s out of the
		// measurement.
		QueueDepth: 256,
		MaxBatch:   256,
		// The streaming probe posts 640 graphs in one body; keep the byte
		// limit out of the way of the batch limits.
		MaxBodyBytes: 256 << 20,
		NoCache:      noCache,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	stop := func() { _ = hs.Close() }
	return srv, "http://" + ln.Addr().String(), stop, nil
}

// runScenario drives url with the workload for cfg.Duration and aggregates
// client-observed throughput and latency.
func runScenario(name, url string, w *workload, cfg ServeLoadConfig) (ServeLoadScenario, error) {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Concurrency * 2,
		MaxIdleConnsPerHost: cfg.Concurrency * 2,
	}}
	defer client.CloseIdleConnections()

	var requests, graphs, errs atomic.Int64
	var latency obs.Histogram
	var firstErr atomic.Value

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cfg.Seed) + int64(c)*7919))
			for time.Now().Before(deadline) {
				req, err := w.batch(rng)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				body, err := json.Marshal(req)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				t0 := time.Now()
				resp, err := client.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				var sr serve.SolveResponse
				decErr := json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				latency.Observe(time.Since(t0))
				if resp.StatusCode != http.StatusOK || decErr != nil {
					errs.Add(1)
					continue
				}
				requests.Add(1)
				graphs.Add(int64(len(sr.Results)))
				for _, res := range sr.Results {
					if !res.OK {
						errs.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return ServeLoadScenario{}, fmt.Errorf("%s: %w", name, err)
	}
	return ServeLoadScenario{
		Name:        name,
		NumCPU:      runtime.NumCPU(),
		Requests:    requests.Load(),
		Graphs:      graphs.Load(),
		Errors:      errs.Load(),
		Seconds:     elapsed,
		RequestsSec: float64(requests.Load()) / elapsed,
		GraphsSec:   float64(graphs.Load()) / elapsed,
		Latency:     latency.Snapshot(),
	}, nil
}

// heapWatcher samples HeapAlloc until stopped and reports the peak.
type heapWatcher struct {
	stop chan struct{}
	done chan uint64
}

func watchHeap() *heapWatcher {
	w := &heapWatcher{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		var peak uint64
		var ms runtime.MemStats
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
				w.done <- peak
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()
	return w
}

func (w *heapWatcher) Peak() uint64 {
	close(w.stop)
	return <-w.done
}

// streamProbe sends the same large batch (10× the default buffered limit)
// buffered and streamed against a probe server whose MaxBatch admits it,
// recording peak in-process heap for each leg. Graphs are tiny — the
// request body is noise next to the per-result footprint — and both
// responses are discarded without materializing client-side, so the peak
// reflects how the server holds results: all at once (buffered) vs a
// bounded window (streamed).
func streamProbe(cfg ServeLoadConfig) (*ServeStreamProbe, error) {
	const bufferedLimit = 64 // serve.Config.MaxBatch default
	batch := 20 * bufferedLimit

	client := &http.Client{}
	defer client.CloseIdleConnections()

	// Tiny distinct graphs: solve work exists but per-result response
	// memory dominates.
	probeCfg := cfg
	probeCfg.N, probeCfg.M = 8, 24
	req := serve.SolveRequest{Requests: make([]serve.GraphRequest, batch)}
	for i := range req.Requests {
		text, err := renderSprand(probeCfg, cfg.Seed+uint64(5_000_000+i))
		if err != nil {
			return nil, err
		}
		req.Requests[i] = serve.GraphRequest{Text: text}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}

	// discard drains a response counting lines, holding only a fixed chunk.
	discard := func(resp *http.Response) (int, error) {
		defer resp.Body.Close()
		lines := 0
		chunk := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(chunk)
			lines += bytes.Count(chunk[:n], []byte("\n"))
			if err != nil {
				if errors.Is(err, io.EOF) {
					return lines, nil
				}
				return lines, err
			}
		}
	}

	probe := &ServeStreamProbe{Batch: batch, BufferedLimit: bufferedLimit}
	for _, leg := range []struct {
		name   string
		suffix string
		// queueDepth shapes the leg's server: the buffered leg needs an
		// admission window covering the whole batch (all-or-nothing
		// admission at streaming scale is exactly what we are costing);
		// the streamed leg keeps the production-default bounded window.
		queueDepth int
		peak       *uint64
		lines      *int
	}{
		{"buffered", "", batch, &probe.BufferedPeakHeap, nil},
		{"streamed", "?stream=1", 0, &probe.StreamPeakHeap, &probe.StreamResults},
	} {
		srv := serve.NewServer(serve.Config{
			Workers:      cfg.Workers,
			QueueDepth:   leg.queueDepth,
			MaxBatch:     batch, // raised so the buffered leg is admitted at all
			MaxBodyBytes: 256 << 20,
			NoCache:      true, // every graph solves on both legs
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: srv}
		go func() { _ = hs.Serve(ln) }()

		runtime.GC()
		hw := watchHeap()
		resp, err := client.Post("http://"+ln.Addr().String()+"/v1/solve"+leg.suffix, "application/json", bytes.NewReader(body))
		if err != nil {
			hs.Close()
			return nil, err
		}
		status := resp.StatusCode
		lines, err := discard(resp)
		*leg.peak = hw.Peak()
		hs.Close()
		if err != nil {
			return nil, fmt.Errorf("stream probe %s leg: %w", leg.name, err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("stream probe %s leg: status %d", leg.name, status)
		}
		if leg.lines != nil {
			*leg.lines = lines - 1 // minus the trailer
			if *leg.lines != batch {
				return nil, fmt.Errorf("stream probe: %d result lines, want %d", *leg.lines, batch)
			}
		}
	}
	if probe.BufferedPeakHeap > 0 {
		probe.HeapRatio = float64(probe.StreamPeakHeap) / float64(probe.BufferedPeakHeap)
	}
	return probe, nil
}

// RunServeLoad runs the sustained-load suite. With cfg.Addr set it measures
// that one external server; otherwise it self-hosts a cache-off and a
// cache-on server, reports both scenarios, their speedup, and the streaming
// memory probe.
func RunServeLoad(cfg ServeLoadConfig) (*ServeLoadReport, error) {
	cfg = cfg.withDefaults()
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	rep := &ServeLoadReport{
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Concurrency: cfg.Concurrency,
		DurationSec: cfg.Duration.Seconds(),
		HitRatio:    cfg.HitRatio,
		BatchSize:   cfg.BatchSize,
		GraphNodes:  cfg.N,
		GraphArcs:   cfg.M,
		Algorithm:   cfg.Algorithm,
	}

	if cfg.Addr != "" {
		sc, err := runScenario("external", "http://"+cfg.Addr, w, cfg)
		if err != nil {
			return nil, err
		}
		rep.Scenarios = append(rep.Scenarios, sc)
		return rep, nil
	}

	for _, leg := range []struct {
		name    string
		noCache bool
	}{
		{"cache-off", true},
		{"cache-on", false},
	} {
		srv, url, stop, err := selfHosted(cfg, leg.noCache)
		if err != nil {
			return nil, err
		}
		sc, err := runScenario(leg.name, url, w, cfg)
		stop()
		if err != nil {
			return nil, err
		}
		if stats, ok := srv.CacheStats(); ok {
			sc.Cache = &stats
		}
		rep.Scenarios = append(rep.Scenarios, sc)
	}
	if off, on := rep.Scenarios[0].GraphsSec, rep.Scenarios[1].GraphsSec; off > 0 {
		rep.Speedup = on / off
	}

	if !cfg.SkipStreamProbe {
		probe, err := streamProbe(cfg)
		if err != nil {
			return nil, err
		}
		rep.Stream = probe
	}
	return rep, nil
}
