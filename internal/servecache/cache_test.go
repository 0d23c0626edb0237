package servecache

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
)

func testGraph(weight int64) *graph.Graph {
	return graph.FromArcs(2, []graph.Arc{
		{From: 0, To: 1, Weight: weight, Transit: 1},
		{From: 1, To: 0, Weight: weight + 1, Transit: 1},
	})
}

func meanKey(g *graph.Graph, opt Options) Key {
	if opt.Problem == "" {
		opt.Problem = "mean"
	}
	if opt.Algorithm == "" {
		opt.Algorithm = "howard"
	}
	return Key{Graph: g.Fingerprint(), Opt: opt}
}

func fixedResult(v int64, certified bool) *Result {
	return &Result{Value: numeric.NewRat(v, 1), Exact: true, Certified: certified}
}

// solveConst returns a solve func that counts invocations.
func solveConst(res *Result, calls *atomic.Int64) func(context.Context) (*Result, error) {
	return func(context.Context) (*Result, error) {
		calls.Add(1)
		return res, nil
	}
}

func TestHitMissAndLRUEviction(t *testing.T) {
	c := New(2, nil)
	ctx := context.Background()
	var calls atomic.Int64

	k1 := meanKey(testGraph(1), Options{})
	k2 := meanKey(testGraph(2), Options{})
	k3 := meanKey(testGraph(3), Options{})

	for i, k := range []Key{k1, k2} {
		res, src, err := c.Do(ctx, k, solveConst(fixedResult(int64(i), false), &calls))
		if err != nil || src != SourceSolve || res == nil {
			t.Fatalf("first solve %d: res=%v src=%v err=%v", i, res, src, err)
		}
	}
	// k1 hit refreshes its recency.
	if _, src, _ := c.Do(ctx, k1, solveConst(nil, &calls)); src != SourceHit {
		t.Fatalf("k1 not a hit: %v", src)
	}
	// k3 evicts k2 (least recently used), not k1.
	if _, src, _ := c.Do(ctx, k3, solveConst(fixedResult(3, false), &calls)); src != SourceSolve {
		t.Fatalf("k3 not a solve: %v", src)
	}
	if _, src, _ := c.Do(ctx, k1, solveConst(nil, &calls)); src != SourceHit {
		t.Fatalf("k1 evicted despite recency: %v", src)
	}
	if _, src, _ := c.Do(ctx, k2, solveConst(fixedResult(2, false), &calls)); src != SourceSolve {
		t.Fatalf("k2 not evicted: %v", src)
	}

	st := c.Stats()
	if st.Entries != 2 || st.Capacity != 2 {
		t.Errorf("entries=%d capacity=%d, want 2/2", st.Entries, st.Capacity)
	}
	if st.Evictions != 2 {
		t.Errorf("evictions=%d, want 2", st.Evictions)
	}
	if st.Hits != 2 || st.Misses != 4 {
		t.Errorf("hits=%d misses=%d, want 2/4", st.Hits, st.Misses)
	}
	if calls.Load() != 4 {
		t.Errorf("solve calls=%d, want 4", calls.Load())
	}
}

// TestOptionKeyingNearMisses is the regression for the full-option-set key:
// every solve-relevant option flip — most critically certify — must miss
// rather than reuse a near-miss entry. A cached uncertified result answering
// a certified request would be a correctness bug, not a perf bug.
func TestOptionKeyingNearMisses(t *testing.T) {
	g := testGraph(5)
	base := Options{Problem: "mean", Algorithm: "howard"}
	variants := []Options{
		{Problem: "mean", Algorithm: "howard", Certify: true},
		{Problem: "mean", Algorithm: "howard", Kernelize: true},
		{Problem: "mean", Algorithm: "howard", Maximize: true},
		{Problem: "mean", Algorithm: "karp"},
		{Problem: "ratio", Algorithm: "howard"},
		{Problem: "ratio", Algorithm: "sternbrocot"},
		{Problem: "ratio", Algorithm: "bhk"},
		{Problem: "mean", Algorithm: "madani"},
		{Problem: "mean", Algorithm: "howard", Certify: true, Kernelize: true},
		{Problem: "mean", Algorithm: "approx", ApproxEpsilon: 0.05, ApproxMode: "chkl"},
		{Problem: "mean", Algorithm: "approx", ApproxEpsilon: 0.01, ApproxMode: "chkl"},
		{Problem: "mean", Algorithm: "approx", ApproxEpsilon: 0.05, ApproxMode: "ap"},
		{Problem: "mean", Algorithm: "approx", ApproxEpsilon: 0.05, ApproxMode: "chkl", ApproxSharpen: true},
	}

	c := New(64, nil)
	ctx := context.Background()
	var calls atomic.Int64
	if _, src, err := c.Do(ctx, meanKey(g, base), solveConst(fixedResult(1, false), &calls)); src != SourceSolve || err != nil {
		t.Fatalf("base: src=%v err=%v", src, err)
	}
	for i, opt := range variants {
		res, src, err := c.Do(ctx, meanKey(g, opt), solveConst(fixedResult(1, opt.Certify), &calls))
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if src != SourceSolve {
			t.Errorf("variant %+v reused a near-miss entry (src=%v)", opt, src)
		}
		if res.Certified != opt.Certify {
			t.Errorf("variant %+v: certified=%v, want %v", opt, res.Certified, opt.Certify)
		}
	}
	// And each exact repeat is a hit.
	for _, opt := range variants {
		if _, src, _ := c.Do(ctx, meanKey(g, opt), solveConst(nil, &calls)); src != SourceHit {
			t.Errorf("repeat of %+v not a hit: %v", opt, src)
		}
	}
	if got, want := calls.Load(), int64(1+len(variants)); got != want {
		t.Errorf("solve calls=%d, want %d", got, want)
	}

	// Same options, different graph content: distinct entries.
	if _, src, _ := c.Do(ctx, meanKey(testGraph(6), base), solveConst(fixedResult(2, false), &calls)); src != SourceSolve {
		t.Errorf("different graph hit the wrong entry: %v", src)
	}
}

// TestCanceledSolveNeverStored pins the poisoning regression: a canceled or
// failed solve must leave no entry, waiters must observe the error, and the
// next request for the same key must re-solve successfully.
func TestCanceledSolveNeverStored(t *testing.T) {
	c := New(8, nil)
	key := meanKey(testGraph(9), Options{})

	// Leader whose ctx expires mid-solve, with waiters merged onto it.
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, key, func(ctx context.Context) (*Result, error) {
			close(started)
			<-ctx.Done()
			return nil, fmt.Errorf("solver unwound: %w", ctx.Err())
		})
		leaderDone <- err
	}()
	<-started

	waiters := 4
	waiterErrs := make(chan error, waiters)
	waiterSrcs := make(chan Source, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, src, err := c.Do(context.Background(), key, func(context.Context) (*Result, error) {
				t.Error("waiter ran its own solve while the leader was in flight")
				return fixedResult(0, false), nil
			})
			if res != nil {
				t.Error("waiter got a result from a canceled solve")
			}
			waiterSrcs <- src
			waiterErrs <- err
		}()
	}
	// Let the waiters reach the merge path, then kill the leader.
	for c.Stats().Singleflight < int64(waiters) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()

	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error %v, want context.Canceled", err)
	}
	for i := 0; i < waiters; i++ {
		if err := <-waiterErrs; !errors.Is(err, context.Canceled) {
			t.Errorf("waiter error %v, want context.Canceled", err)
		}
		if src := <-waiterSrcs; src != SourceMerged {
			t.Errorf("waiter source %v, want merged", src)
		}
	}

	// Nothing stored; the key re-solves cleanly.
	if c.Len() != 0 {
		t.Fatalf("canceled solve left %d entries in the cache", c.Len())
	}
	var calls atomic.Int64
	res, src, err := c.Do(context.Background(), key, solveConst(fixedResult(7, false), &calls))
	if err != nil || src != SourceSolve || res.Value.Num() != 7 {
		t.Fatalf("re-solve after cancellation: res=%+v src=%v err=%v", res, src, err)
	}
	if _, src, _ = c.Do(context.Background(), key, solveConst(nil, &calls)); src != SourceHit {
		t.Fatalf("entry missing after clean re-solve: %v", src)
	}
}

// TestWaiterOwnDeadline: a merged waiter whose own ctx expires before the
// leader finishes gets its own ctx error and does not wedge.
func TestWaiterOwnDeadline(t *testing.T) {
	c := New(8, nil)
	key := meanKey(testGraph(11), Options{})
	release := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), key, func(context.Context) (*Result, error) {
		close(started)
		<-release
		return fixedResult(1, false), nil
	})
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, src, err := c.Do(ctx, key, nil)
	if src != SourceMerged || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("src=%v err=%v, want merged + deadline", src, err)
	}
	close(release)
}

// TestSingleflightExactlyOnce hammers one key from many goroutines and
// requires exactly one solve, with everyone sharing the identical *Result.
func TestSingleflightExactlyOnce(t *testing.T) {
	c := New(8, nil)
	key := meanKey(testGraph(20), Options{})
	var calls atomic.Int64
	gate := make(chan struct{})
	res := fixedResult(42, false)

	const goroutines = 32
	results := make(chan *Result, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			r, _, err := c.Do(context.Background(), key, func(context.Context) (*Result, error) {
				calls.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the merge window
				return res, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results <- r
		}()
	}
	close(gate)
	wg.Wait()
	close(results)
	if calls.Load() != 1 {
		t.Fatalf("solve ran %d times, want exactly once", calls.Load())
	}
	for r := range results {
		if r != res {
			t.Fatal("a caller got a different result pointer than the single solve produced")
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Singleflight+st.Hits != goroutines-1 {
		t.Fatalf("stats %+v: want 1 miss and %d merges+hits", st, goroutines-1)
	}
}

// TestTracerEvents wires a Metrics-backed tracer and checks every op lands
// on the obs counters the serve layer exports.
func TestTracerEvents(t *testing.T) {
	m := obs.NewMetrics()
	c := New(1, m.Tracer())
	ctx := context.Background()
	var calls atomic.Int64

	k1 := meanKey(testGraph(1), Options{})
	k2 := meanKey(testGraph(2), Options{})
	c.Do(ctx, k1, solveConst(fixedResult(1, false), &calls)) // miss
	c.Do(ctx, k1, solveConst(nil, &calls))                   // hit
	c.Do(ctx, k2, solveConst(fixedResult(2, false), &calls)) // miss + evict

	release := make(chan struct{})
	started := make(chan struct{})
	go c.Do(ctx, k1, func(context.Context) (*Result, error) {
		close(started)
		<-release
		return fixedResult(1, false), nil
	})
	<-started
	waited := make(chan struct{})
	go func() {
		c.Do(ctx, k1, nil) // merge
		close(waited)
	}()
	for c.Stats().Singleflight == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-waited

	snap := m.Snapshot()
	want := map[string]int64{
		"serve_cache_hits":   1,
		"serve_cache_misses": 3,
		// k2 evicts k1, then the re-solved k1 evicts k2 (capacity 1).
		"serve_cache_evictions":    2,
		"serve_cache_singleflight": 1,
	}
	for k, v := range want {
		if got := snap[k].(int64); got != v {
			t.Errorf("%s = %d, want %d", k, got, v)
		}
	}
}

// TestConcurrentMixedKeys is the race-detector workout: many goroutines,
// many keys, a tiny capacity forcing constant eviction.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New(4, nil)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v := int64(i % 8)
				key := meanKey(testGraph(v), Options{Certify: i%2 == 0})
				key.Opt.Certify = i%2 == 0
				res, _, err := c.Do(context.Background(), key, func(context.Context) (*Result, error) {
					return fixedResult(v, key.Opt.Certify), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Value.Num() != v || res.Certified != key.Opt.Certify {
					t.Errorf("wrong result for key %v: %+v", key.Opt, res)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > 4 {
		t.Fatalf("capacity 4 exceeded: %d entries", n)
	}
}

// TestDeltaContentNearMisses pins the fingerprint behavior the session API
// depends on. A delta stream walks one graph through a sequence of nearby
// contents; every distinct content must key a distinct entry (a one-weight
// edit must never be served the prior state's answer), while an edit that is
// later reverted returns to the seed's exact key. That last property is why
// session solves bypass the cache in both directions: a lookup would be a
// staleness bug for every non-reverted state, and a store would publish
// mid-stream answers under keys /v1/solve requests can reach.
func TestDeltaContentNearMisses(t *testing.T) {
	seed := graph.FromArcs(3, []graph.Arc{
		{From: 0, To: 1, Weight: 4, Transit: 1},
		{From: 1, To: 2, Weight: 7, Transit: 1},
		{From: 2, To: 0, Weight: -2, Transit: 1},
	})
	dg := graph.NewDynamic(seed)
	fp := func() Key {
		snap, _ := dg.Materialize()
		return meanKey(snap, Options{})
	}

	c := New(64, nil)
	ctx := context.Background()
	var calls atomic.Int64

	k0 := fp()
	if _, src, err := c.Do(ctx, k0, solveConst(fixedResult(3, false), &calls)); src != SourceSolve || err != nil {
		t.Fatalf("seed: src=%v err=%v", src, err)
	}

	// Each delta lands on a fresh key: a hit here would be the staleness bug.
	steps := []func() error{
		func() error { return dg.SetWeight(1, 8) },                      // one weight, ±1
		func() error { return dg.SetTransit(0, 2) },                     // transit only
		func() error { _, err := dg.InsertArc(2, 1, 7, 1); return err }, // new arc
		func() error { return dg.DeleteArc(3) },                         // ...and gone again
		func() error { dg.AddNode(); return nil },                       // isolated node
	}
	seen := map[Key]bool{k0: true}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		k := fp()
		if seen[k] {
			// Step 3 (delete of the just-inserted arc) deliberately returns
			// to step 1+2's content; every other step must be novel.
			if i != 3 {
				t.Fatalf("step %d: content collided with an earlier state", i)
			}
			continue
		}
		seen[k] = true
		if _, src, err := c.Do(ctx, k, solveConst(fixedResult(int64(10+i), false), &calls)); src != SourceSolve || err != nil {
			t.Fatalf("step %d: near-miss content served a cached entry (src=%v err=%v)", i, src, err)
		}
	}

	// Revert everything: the overlay's history independence must land the
	// key exactly back on the seed entry.
	if err := dg.SetWeight(1, 7); err != nil {
		t.Fatal(err)
	}
	if err := dg.SetTransit(0, 1); err != nil {
		t.Fatal(err)
	}
	// (The inserted arc is already deleted; the added node keeps the key
	// distinct, which is correct: an isolated node is still content.)
	snap, _ := dg.Materialize()
	reverted := graph.FromArcs(3, snap.Arcs()[:3])
	if meanKey(reverted, Options{}) != k0 {
		t.Fatal("reverted content does not key back to the seed entry")
	}
	if _, src, _ := c.Do(ctx, meanKey(reverted, Options{}), solveConst(nil, &calls)); src != SourceHit {
		t.Fatal("reverted content missed the seed entry")
	}
}

// TestDigestCoversEveryOption flips each Options field in turn, by
// reflection, and demands a digest distinct from the zero key's and from
// every other flip's. A field added to Options but left out of Key.digest
// fails here.
func TestDigestCoversEveryOption(t *testing.T) {
	seen := map[digest]string{Key{}.digest(): "zero options"}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		var k Key
		name := typ.Field(i).Name
		switch f := reflect.ValueOf(&k.Opt).Elem().Field(i); f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Float64:
			f.SetFloat(0.5)
		default:
			t.Fatalf("Options.%s has kind %s, which this test cannot flip", name, f.Kind())
		}
		d := k.digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("flipping Options.%s gives the digest of %s", name, prev)
		}
		seen[d] = name
	}
	var k Key
	k.Graph[31] = 1
	if _, dup := seen[k.digest()]; dup {
		t.Error("the graph fingerprint does not reach the digest")
	}
}

// TestBytesPerEntry pins the heap one stored ratio result retains — the
// Result and a 16-arc witness cycle (192 B) plus the cache's own
// bookkeeping (map slot, digest key, LRU links). Keying the map by the
// Options-carrying Key, stored twice, with a container/list element cost
// 615 B here; the digest key and intrusive LRU cost 343 B.
func TestBytesPerEntry(t *testing.T) {
	const entries = 4096
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(entries, nil)
	for i := 0; i < entries; i++ {
		res := &Result{Value: numeric.NewRat(int64(i), 7), Cycle: make([]graph.ArcID, 16), Exact: true, Certified: true}
		var fp graph.Fingerprint
		binary.LittleEndian.PutUint64(fp[:], uint64(i))
		key := Key{Graph: fp, Opt: Options{Problem: "ratio", Algorithm: "sternbrocot", Certify: true}}
		if _, _, err := c.Do(context.Background(), key, func(context.Context) (*Result, error) { return res, nil }); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if c.Len() != entries {
		t.Fatalf("Len = %d, want %d", c.Len(), entries)
	}
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / entries
	t.Logf("%.0f B retained per entry", per)
	if per > 400 {
		t.Errorf("a stored ratio result retains %.0f B, pinned at <= 400", per)
	}
}
