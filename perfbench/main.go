// Command perfbench is the repository's benchmark: it drives a fresh mcmd,
// built from the checkout under test, over loopback HTTP with a closed loop
// of two clients, checks every answer, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of an in-process traced replay of the
// same ops (--trace 1). The last stdout line is the JSON result:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root; README.md describes the
// workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: mean-cold, ratio-exact, repeat-hot or session-delta")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "1 adds the traced replay and reports per-layer metrics")
		mcmd    = flag.String("mcmd", "", "mcmd binary under test")
		outDir  = flag.String("out", "", "directory for result and span files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *mcmd, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, seed int64, seconds, trace int, mcmd, outDir string) error {
	traced := trace == 1
	if mcmd == "" || outDir == "" || seconds < 1 {
		return fmt.Errorf("need -mcmd, -out and -seconds >= 1")
	}
	if _, err := os.Stat(mcmd); err != nil {
		return err
	}
	env := envStamp(mcmd, seed)
	env["workload"], env["trace"] = name, traced
	genStart := time.Now()
	w, err := buildWorkload(name, seed, seconds)
	if err != nil {
		return err
	}
	env["inputs_s"] = time.Since(genStart).Seconds()
	s, err := runServed(mcmd, w, seconds)
	if err != nil {
		return err
	}
	if line, err := json.Marshal(map[string]any{"env": env}); err == nil {
		fmt.Println(string(line))
	}

	attempted, failed, wrong := s.totals()
	lat := s.latencies()
	t := tail(append([]float64(nil), lat...))
	p50 := median(lat)
	ops := len(lat)
	// raw holds the timings as measured; the reported ones are scaled to
	// the reference host speed (calib.go).
	raw := map[string]metric{
		"ops_per_s":            {s.opsPerSecond(), "ops/s"},
		"latency_p50_ms":       {p50, "ms"},
		"latency_tail_ms":      {t.Value, "ms"},
		"server_cpu_ms_per_op": {s.cpuMs / float64(max(ops, 1)), "ms"},
		"server_rss_peak_mb":   {s.rssMiB, "MiB"},
		"setup_s":              {median(append([]float64(nil), s.setupS...)), "s"},
	}
	host, err := hostFactors(s.calib, w.refOps)
	if err != nil {
		return err
	}
	e2e := map[string]metric{}
	for k, m := range raw {
		switch k {
		case "ops_per_s":
			m.Value *= host.Mean
		case "latency_p50_ms":
			m.Value /= host.P50
		case "latency_tail_ms":
			m.Value /= host.Mean
		case "server_cpu_ms_per_op":
			m.Value /= host.CPU
		case "setup_s":
			m.Value /= host.Mean
		}
		e2e[k] = m
	}
	failFrac := float64(failed) / float64(max(attempted, 1))

	hitRatio := share(s.vars.Cache.Hits, s.vars.Cache.Misses)
	switch name {
	case "repeat-hot":
		if hitRatio < 0.88 || hitRatio > 0.92 {
			s.problem("servecache hit ratio %.4f outside 0.9±0.02", hitRatio)
		}
	default:
		if s.vars.Cache.Hits != 0 {
			s.problem("servecache served %d hits on a workload that never repeats a graph", s.vars.Cache.Hits)
		}
	}

	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v\n", name, seed, seconds, traced)
	fmt.Printf("  host factors: mean %.4f, p50 %.4f, CPU %.4f (%d calibration bursts, %.3f s in all, stretches of %d); vCPU steal %.4f of the window\n",
		host.Mean, host.P50, host.CPU, len(s.calib), s.paused.Seconds(), w.refOps, s.steal)
	row := func(name string, m metric, note string) {
		if r, ok := raw[name]; ok && r.Value != m.Value {
			note = fmt.Sprintf("(raw %.4f) %s", r.Value, note)
		}
		fmt.Printf("  %-42s %14.4f %-6s %s\n", name, m.Value, m.Unit, note)
	}
	row("ops_per_s", e2e["ops_per_s"], fmt.Sprintf("(%d clients, closed loop)", clients))
	row("latency_p50_ms", e2e["latency_p50_ms"], fmt.Sprintf("(%d samples)", ops))
	t10 := tailBeyond(lat, tailMinBeyond)
	row("latency_tail_ms", e2e["latency_tail_ms"], fmt.Sprintf("(%v; with only 10 beyond: p%g, raw %.4f)",
		t, float64(t10.Permille)/10, t10.Value))
	row("fail_frac", metric{failFrac, "ratio"}, fmt.Sprintf("(%d failed of %d attempted, %d wrong answers)", failed, attempted, wrong))
	row("server_cpu_ms_per_op", e2e["server_cpu_ms_per_op"], "(mcmd user+sys from /proc)")
	row("server_rss_peak_mb", e2e["server_rss_peak_mb"], "(mcmd VmHWM)")
	row("setup_s", e2e["setup_s"], fmt.Sprintf("(median of %d launches: %.4v)", len(s.setupS), s.setupS))
	if !traced { // the traced run lists both among the per-layer metrics
		row("servecache.hit_ratio", metric{hitRatio, "ratio"}, "(from /debug/vars)")
		row("core.session_warm_ratio", metric{share(s.vars.Solver.SessionHits, s.vars.Solver.SessionMisses), "ratio"}, "(from /debug/vars)")
	}

	result := map[string]any{"env": env, "workload": name, "seed": seed, "seconds": seconds,
		"end_to_end": e2e, "end_to_end_raw": raw, "host_factors": host, "calibrations": s.calib,
		"fail_frac": failFrac, "attempted": attempted, "failed": failed, "wrong": wrong,
		"latency_tail": t, "latency_tail_10_beyond_raw": t10, "setup_launches_s": s.setupS, "violations": s.problems}
	metrics := e2e
	if traced {
		layers, spans, err := tracedReplay(w, s, p50)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(layers))
		for n := range layers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			row(n, layers[n], "")
		}
		spanFile := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if err := writeSpans(spanFile, env, spans); err != nil {
			return err
		}
		fmt.Printf("  spans: %d written to %s\n", len(spans), spanFile)
		result["per_layer"] = layers
		metrics = layers
	}
	for _, p := range s.problems {
		fmt.Println("  violation:", p)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return err
	}
	resultFile := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", name, seed, trace))
	if err := os.WriteFile(resultFile, data, 0o644); err != nil {
		return err
	}
	last, err := json.Marshal(map[string]any{
		"correct":   failed == 0 && len(s.problems) == 0, // wrong answers count as failed
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// tracedReplay replays the run's first timed ops in-process: untraced, then
// traced, then untraced again (the overhead compares the traced pass with
// the mean of the two untraced ones), then through the in-process handler.
// It returns every per-layer metric and the traced pass's spans.
func tracedReplay(w *workload, s *served, servedP50 float64) (map[string]metric, []span, error) {
	pass := func(rec *recorder, n int) (int, time.Duration, replayer, error) {
		r, err := newReplayer(w, rec, s.firstTimed)
		if err != nil {
			return 0, 0, nil, err
		}
		// n == 0 sizes the pass: every timed op, but stop after
		// replayPerPass once replayMinOps are done.
		more := func(i int, start time.Time) bool {
			if n > 0 {
				return i < n
			}
			return i < s.timedOps && (i < replayMinOps || time.Since(start) < replayPerPass)
		}
		var total time.Duration
		i := 0
		for start := time.Now(); more(i, start); i++ {
			d, err := r.op(i)
			if err != nil {
				return 0, 0, nil, fmt.Errorf("replay op %d: %w", i, err)
			}
			total += d
		}
		return i, total, r, nil
	}
	n, untracedA, _, err := pass(nil, 0)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("the timed window completed no ops to replay")
	}
	rec := newRecorder()
	_, tracedT, r, err := pass(rec, n)
	if err != nil {
		return nil, nil, err
	}
	_, untracedB, _, err := pass(nil, n)
	if err != nil {
		return nil, nil, err
	}
	handler, err := handlerPass(w, s.firstTimed, n)
	if err != nil {
		return nil, nil, err
	}

	lt := sumLayers(rec.spans)
	c := rec.counts
	perOp := func(v int64) float64 { return float64(v) / float64(n) }
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / float64(n) }
	mbps := func(bytes, ns int64) float64 {
		if ns == 0 {
			return 0
		}
		return float64(bytes) / 1e6 / (float64(ns) / 1e9)
	}
	nsPer := func(ns, per int64) float64 {
		if per == 0 {
			return 0
		}
		return float64(ns) / float64(per)
	}
	handlerMs := float64(handler) / 1e6 / float64(n)
	dynWarm := 0.0
	if dr, ok := r.(*deltaReplay); ok {
		dynWarm = dr.warmRatio()
	}
	m := map[string]metric{
		"serve.request_decode_ms":  {ms(lt.self["serve.request_decode"]), "ms"},
		"serve.response_encode_ms": {ms(lt.self["serve.response_encode"]), "ms"},
		"serve.handler_ms":         {handlerMs, "ms"},
		"serve.unattributed_ms":    {handlerMs - ms(lt.attributed()), "ms"},

		"graph.decode_json_ms":       {ms(lt.self["graph.decode_json"]), "ms"},
		"graph.decode_json_mb_per_s": {mbps(c["graph.json_bytes"], lt.self["graph.decode_json"]), "MB/s"},
		"graph.read_text_ms":         {ms(lt.self["graph.read_text"]), "ms"},
		"graph.read_text_mb_per_s":   {mbps(c["graph.text_bytes"], lt.self["graph.read_text"]), "MB/s"},
		"graph.fingerprint_ms":       {ms(lt.self["graph.fingerprint"]), "ms"},
		"graph.scc_ms":               {ms(lt.self["graph.scc"]), "ms"},

		"servecache.hit_ratio": {share(s.vars.Cache.Hits, s.vars.Cache.Misses), "ratio"},
		"servecache.do_ms":     {ms(lt.self["servecache.do"]), "ms"},
		"servecache.merges":    {float64(s.vars.Cache.Merges), "count"},

		"core.engine_ms":          {ms(lt.self["core.engine"]), "ms"},
		"core.iterations_per_op":  {perOp(c["core.iterations"]), "count/op"},
		"core.relaxations_per_op": {perOp(c["core.relaxations"]), "count/op"},
		"core.ns_per_relaxation":  {nsPer(lt.total["core.engine"], c["core.relaxations"]), "ns"},
		"core.certify_ms":         {ms(lt.self["core.certify"]), "ms"},
		"core.driver_other_ms":    {ms(lt.self["core.session"] + lt.self["core.driver"]), "ms"},
		"core.session_warm_ratio": {share(s.vars.Solver.SessionHits, s.vars.Solver.SessionMisses), "ratio"},

		"ratio.probes_per_op":                {perOp(c["ratio.probes"]), "count/op"},
		"ratio.probe_passes_per_op":          {perOp(c["ratio.probe_passes"]), "count/op"},
		"ratio.negative_probe_passes_per_op": {perOp(c["ratio.negative_probe_passes"]), "count/op"},
		"ratio.probe_ms":                     {ms(lt.self["ratio.probe"]), "ms"},
		"ratio.ns_per_pass_arc":              {nsPer(lt.total["ratio.probe"], c["ratio.pass_arcs"]), "ns"},
		"ratio.certify_ms":                   {ms(lt.self["ratio.certify"]), "ms"},

		"core.dynsession.apply_ms":              {ms(lt.self["core.dynsession.apply"]), "ms"},
		"core.dynsession.solve_ms":              {ms(lt.self["core.dynsession.solve"]), "ms"},
		"core.dynsession.invalidated_per_delta": {perOp(c["core.dynsession.invalidated"]), "count/op"},
		"core.dynsession.warm_ratio":            {dynWarm, "ratio"},

		"trace.overhead_frac": {float64(tracedT)/(float64(untracedA+untracedB)/2) - 1, "ratio"},
		"trace.coverage_frac": {ms(lt.attributed()) / servedP50, "ratio"},
	}
	for _, algo := range ratioAlgos {
		m["ratio.engine_ms."+algo] = metric{ms(lt.self["ratio.engine."+algo]), "ms"}
	}
	return m, rec.spans, nil
}
