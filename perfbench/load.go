package main

// The served run: a fresh mcmd per launch, driven over loopback HTTP by a
// closed loop of clients, each on its own keep-alive connection.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

const (
	clients    = 2 // closed-loop clients, one connection each
	setupRuns  = 5 // launches per run; setup_s is their median
	opTimeout  = time.Minute
	maxReports = 5 // violations and failures kept verbatim
)

// errWrong marks an answer that came back but is wrong, as opposed to a
// failed request.
var errWrong = errors.New("wrong answer")

// clientLog is one client's record of the timed window.
type clientLog struct {
	lat       []float64 // ms, successful ops only
	attempted int
	failed    int
	wrong     int
	firstErr  error         // the first failure's error
	busy      time.Duration // window start to the end of its last op, calibration bursts excluded
}

// served is the outcome of the served run.
type served struct {
	setupS     []float64 // launch-to-warm seconds of every launch
	logs       []*clientLog
	cpuMs      float64
	calib      []calibration // the calibration bursts of the window
	paused     time.Duration // the time they took
	steal      float64       // share of the host's CPU ticks stolen over the window
	rssMiB     float64
	vars       debugVars // /debug/vars deltas over the timed window
	firstTimed int       // index of the first timed op (solve workloads)
	timedOps   int       // ops the replay may replay
	problems   []string
}

func (s *served) problem(format string, args ...any) {
	if len(s.problems) < maxReports {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

func newHTTPClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   timeout,
	}
}

// loadClient is one closed-loop client bound to one daemon launch.
type loadClient struct {
	http  *http.Client
	delta *deltaStream // session-delta only
}

// runServed launches mcmd setupRuns times, warming each launch up, and
// measures the last one for the given duration.
func runServed(bin string, w *workload, seconds int) (*served, error) {
	s := &served{}
	cal, err := startCalibService()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	var next atomic.Int64 // next solve op index, never reset: bodies stay unique
	sent := map[string]bool{}
	var sentMu sync.Mutex
	doSolve := func(c *http.Client, url string, op solveOp) (time.Duration, error) {
		sentMu.Lock()
		for _, k := range op.keys {
			if sent[k] {
				sentMu.Unlock()
				return 0, fmt.Errorf("%w: graph %s would be sent twice", errWrong, k)
			}
			sent[k] = true
		}
		sentMu.Unlock()
		return sendSolve(c, url, op)
	}

	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	var cl []*loadClient
	for run := 0; run < setupRuns; run++ {
		start := time.Now()
		var err error
		if d, err = startDaemon(bin); err != nil {
			return nil, err
		}
		cl = make([]*loadClient, clients)
		for c := range cl {
			cl[c] = &loadClient{http: newHTTPClient(opTimeout)}
		}
		if err := warmUp(d, w, cl, &next, doSolve); err != nil {
			for _, c := range cl {
				if w.delta != nil && c.delta == nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
			s.problem("warm-up: %v", err)
		}
		s.setupS = append(s.setupS, time.Since(start).Seconds())
		if run == setupRuns-1 {
			break
		}
		closeClients(cl, s)
		if err := d.stop(); err != nil {
			s.problem("launch %d: %v", run+1, err)
		}
		d = nil
	}
	v0, err := d.vars()
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuMillis()
	if err != nil {
		return nil, err
	}
	s.firstTimed = int(next.Load())
	var do func(c int) (time.Duration, error)
	if w.solve != nil {
		url := d.url("/v1/solve")
		do = func(c int) (time.Duration, error) {
			return doSolve(cl[c].http, url, w.solve.op(int(next.Add(1)-1)))
		}
	} else {
		do = func(c int) (time.Duration, error) { return cl[c].delta.do() }
	}
	st0, tt0 := stealTicks()
	s.logs, s.calib, s.paused, err = closedLoop(time.Duration(seconds)*time.Second, do, cal)
	if err != nil {
		return nil, err
	}
	st1, tt1 := stealTicks()
	s.steal = float64(st1-st0) / float64(tt1-tt0)
	for c, l := range s.logs {
		if l.failed > 0 {
			s.problem("client %d: %d of %d timed ops failed; first: %v", c, l.failed, l.attempted, l.firstErr)
		}
	}
	s.timedOps = int(next.Load()) - s.firstTimed
	if w.delta != nil {
		// The replay alternates clients, so it can replay as many rounds as
		// the slower client played.
		s.timedOps = s.logs[0].attempted
		for _, l := range s.logs {
			s.timedOps = min(s.timedOps, l.attempted)
		}
		s.timedOps *= clients
	}

	cpu1, err := d.cpuMillis()
	if err != nil {
		return nil, err
	}
	s.cpuMs = cpu1 - cpu0
	if s.rssMiB, err = d.peakRSSMiB(); err != nil {
		return nil, err
	}
	v1, err := d.vars()
	if err != nil {
		return nil, err
	}
	s.vars.Cache.Hits = v1.Cache.Hits - v0.Cache.Hits
	s.vars.Cache.Misses = v1.Cache.Misses - v0.Cache.Misses
	s.vars.Cache.Merges = v1.Cache.Merges - v0.Cache.Merges
	s.vars.Solver.SessionHits = v1.Solver.SessionHits - v0.Solver.SessionHits
	s.vars.Solver.SessionMisses = v1.Solver.SessionMisses - v0.Solver.SessionMisses

	closeClients(cl, s)
	if err := d.stop(); err != nil {
		s.problem("final launch: %v", err)
	}
	d = nil
	return s, nil
}

// warmUp loads the caches (fill ops) and sends w.warm ops per client, so the
// first timed op meets a warm daemon. Session-delta opens each client's
// session and delta stream here; they stay open into the timed window.
func warmUp(d *daemon, w *workload, cl []*loadClient, next *atomic.Int64,
	doSolve func(*http.Client, string, solveOp) (time.Duration, error)) error {
	errs := make([]error, len(cl))
	var wg sync.WaitGroup
	for c := range cl {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if w.delta != nil {
				cl[c].delta, errs[c] = openDeltaStream(cl[c].http, d, w.delta.scripts[c])
				if cl[c].delta == nil {
					return
				}
				for k := 0; k < w.warm && errs[c] == nil; k++ {
					_, errs[c] = cl[c].delta.do()
				}
				return
			}
			url := d.url("/v1/solve")
			for k := c; k < len(w.solve.fill) && errs[c] == nil; k += len(cl) {
				_, errs[c] = sendSolve(cl[c].http, url, w.solve.fill[k])
			}
			for k := 0; k < w.warm && errs[c] == nil; k++ {
				_, errs[c] = doSolve(cl[c].http, url, w.solve.op(int(next.Add(1)-1)))
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// closeClients ends every delta stream (checking its trailer) and drops the
// clients' idle connections.
func closeClients(cl []*loadClient, s *served) {
	for _, c := range cl {
		if c.delta != nil {
			if err := c.delta.close(); err != nil {
				s.problem("close delta stream: %v", err)
			}
		}
		c.http.CloseIdleConnections()
	}
}

// closedLoop runs the clients for d: each sends its next op as soon as the
// previous one is answered. Every calibEvery it pauses them, waiting for the
// ops in flight, and runs a calibration burst while the daemon is idle. It
// returns the clients' logs, the calibrations and the time the bursts took.
func closedLoop(d time.Duration, do func(c int) (time.Duration, error), cal *calibService) ([]*clientLog, []calibration, time.Duration, error) {
	logs := make([]*clientLog, clients)
	start := time.Now()
	deadline := start.Add(d)
	var gate sync.RWMutex // clients hold it shared for one op each
	var calib []calibration
	var calErr error
	var paused time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Add(calibEvery).Before(deadline) {
			time.Sleep(calibEvery)
			gate.Lock()
			p := time.Now()
			c, err := cal.burst()
			paused += time.Since(p)
			gate.Unlock()
			if err != nil {
				calErr = err
				return
			}
			calib = append(calib, c)
		}
	}()
	for c := range logs {
		logs[c] = &clientLog{}
		wg.Add(1)
		go func(l *clientLog, c int) {
			defer wg.Done()
			for {
				gate.RLock()
				if !time.Now().Before(deadline) {
					gate.RUnlock()
					break
				}
				lat, err := do(c)
				gate.RUnlock()
				l.attempted++
				if err != nil && l.firstErr == nil {
					l.firstErr = err
				}
				switch {
				case errors.Is(err, errWrong):
					l.failed++
					l.wrong++
				case err != nil:
					l.failed++
				default:
					l.lat = append(l.lat, float64(lat)/1e6)
				}
			}
			l.busy = time.Since(start)
		}(logs[c], c)
	}
	wg.Wait()
	for _, l := range logs {
		l.busy -= paused
	}
	return logs, calib, paused, calErr
}

// sendSolve posts one /v1/solve body and checks every entry of the answer.
// The latency runs from the send to the last byte of the response.
func sendSolve(c *http.Client, url string, op solveOp) (time.Duration, error) {
	body := net.Buffers(append([][]byte(nil), op.pieces...))
	var size int64
	for _, p := range op.pieces {
		size += int64(len(p))
	}
	req, err := http.NewRequest(http.MethodPost, url, &body)
	if err != nil {
		return 0, err
	}
	req.ContentLength = size
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}
	var sr serve.SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return lat, fmt.Errorf("decode response: %w", err)
	}
	return lat, checkSolve(op, sr.Results)
}

// checkSolve verifies every entry of a /v1/solve answer. A per-graph error
// is a failure; a wrong or uncertified value or cycle is errWrong.
func checkSolve(op solveOp, results []serve.GraphResult) error {
	if len(results) != len(op.want) {
		return fmt.Errorf("%w: %d results for %d graphs", errWrong, len(results), len(op.want))
	}
	for i, r := range results {
		if !r.OK || r.Error != nil {
			return fmt.Errorf("entry %d: %+v", i, r.Error)
		}
		w := op.want[i]
		if !r.Certified {
			return fmt.Errorf("%w: entry %d not certified", errWrong, i)
		}
		m := int64(len(w.view.base))
		err := checkAnswer(r.Value, r.Cycle, w.value, w.ratio, func(id int64) (graph.Arc, bool) {
			if id < 0 || id >= m {
				return graph.Arc{}, false
			}
			return w.view.arc(int(id)), true
		})
		if err != nil {
			return fmt.Errorf("%w: entry %d: %v", errWrong, i, err)
		}
	}
	return nil
}

// deltaStream is one client's session and its full-duplex NDJSON delta
// stream: each op writes one delta line and reads its answer line.
type deltaStream struct {
	player *deltaPlayer
	w      *io.PipeWriter
	resp   *http.Response
	rd     *bufio.Reader
	sent   int
}

// openDeltaStream creates a certified session on the script's seed graph,
// checks its initial answer and opens the delta stream. A wrong initial
// answer is returned as an errWrong error alongside the open stream.
func openDeltaStream(c *http.Client, d *daemon, s *deltaScript) (*deltaStream, error) {
	resp, err := c.Post(d.url("/v1/session"), "application/json", bytes.NewReader(sessionBody(s)))
	if err != nil {
		return nil, err
	}
	var cr serve.SessionCreateResponse
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("create session: status %d: %v", resp.StatusCode, err)
	}
	p := newDeltaPlayer(s)
	seedWant := s.want[len(s.want)-1] // a full script pass returns to the seed
	err = checkAnswer(cr.Result.Value, cr.Result.Cycle, seedWant, false, func(id int64) (graph.Arc, bool) {
		a, ok := p.arcs[id]
		return a, ok
	})
	var wrong error
	if err != nil {
		wrong = fmt.Errorf("%w: initial session solve: %v", errWrong, err)
	}

	// The stream has no client timeout: it lives for the whole run. Each op
	// arms its own watchdog instead.
	stream := &http.Client{Transport: c.Transport}
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, d.url("/v1/session/"+cr.SessionID+"/deltas"), pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err = stream.Do(req)
	if err != nil {
		pw.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		pw.Close()
		resp.Body.Close()
		return nil, fmt.Errorf("delta stream: status %d", resp.StatusCode)
	}
	return &deltaStream{player: p, w: pw, resp: resp, rd: bufio.NewReader(resp.Body)}, wrong
}

// sessionBody is the POST /v1/session body for a script: its seed graph in
// the inline JSON form, certified.
func sessionBody(s *deltaScript) []byte {
	b := []byte(`{"certify":true,"graph":{"nodes":` + fmt.Sprint(s.n) + `,"arcs":[`)
	for j, a := range s.seed {
		if j > 0 {
			b = append(b, ',')
		}
		b = arcJSON(b, a)
	}
	return append(b, "]}}"...)
}

// do sends the next delta and checks its answer.
func (ds *deltaStream) do() (time.Duration, error) {
	dr, exp := ds.player.next()
	line, err := json.Marshal(dr)
	if err != nil {
		return 0, err
	}
	line = append(line, '\n')
	watchdog := time.AfterFunc(opTimeout, func() { ds.resp.Body.Close() })
	defer watchdog.Stop()
	start := time.Now()
	if _, err := ds.w.Write(line); err != nil {
		return 0, fmt.Errorf("send delta: %w", err)
	}
	ds.sent++
	reply, err := ds.rd.ReadBytes('\n')
	lat := time.Since(start)
	if err != nil {
		return lat, fmt.Errorf("read delta answer: %w", err)
	}
	var res serve.DeltaResult
	if err := json.Unmarshal(reply, &res); err != nil {
		return lat, fmt.Errorf("decode delta answer: %w", err)
	}
	if err := ds.player.check(exp, res); err != nil {
		if res.OK {
			return lat, fmt.Errorf("%w: %v", errWrong, err)
		}
		return lat, err
	}
	return lat, nil
}

// close ends the stream from the client side and checks the trailer counts
// every delta sent, with no errors.
func (ds *deltaStream) close() error {
	defer ds.resp.Body.Close()
	if err := ds.w.Close(); err != nil {
		return err
	}
	var tr serve.SessionTrailer
	for {
		line, err := ds.rd.ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("no trailer: %w", err)
		}
		if bytes.Contains(line, []byte(`"done":true`)) {
			if err := json.Unmarshal(line, &tr); err != nil {
				return err
			}
			break
		}
	}
	if tr.Results != ds.sent || tr.Errors != 0 {
		return fmt.Errorf("trailer counts %d results, %d errors; sent %d", tr.Results, tr.Errors, ds.sent)
	}
	return nil
}

// latencies merges the clients' successful-op latencies.
func (s *served) latencies() []float64 {
	var all []float64
	for _, l := range s.logs {
		all = append(all, l.lat...)
	}
	return all
}

// opsPerSecond sums each client's rate of successful ops over its own busy
// time, so a client's last op never leaves the other idle in the count.
func (s *served) opsPerSecond() float64 {
	var rate float64
	for _, l := range s.logs {
		if l.busy > 0 {
			rate += float64(len(l.lat)) / l.busy.Seconds()
		}
	}
	return rate
}

func (s *served) totals() (attempted, failed, wrong int) {
	for _, l := range s.logs {
		attempted += l.attempted
		failed += l.failed
		wrong += l.wrong
	}
	return
}
