// Package servecache is the serve-layer content-addressed result cache:
// canonical graph fingerprint + solve options → stored solve outcome, with
// singleflight deduplication so N concurrent identical requests cost one
// solve, and a bounded LRU so memory stays capped under millions of
// distinct graphs.
//
// The cache sits in front of the solver stack in internal/serve: repeated
// solves of the same graph under the same options — the dominant production
// workload, where the same CAD graphs and perturbations arrive over and
// over — become O(1) lookups instead of O(nm) solver runs. Keys are exact:
// the graph fingerprint (graph.Fingerprint, identical across text and JSON
// encodings of the same arc list) combined with every solve-relevant option
// (problem, direction, algorithm, kernelize, certify, approximation knobs),
// so a cached uncertified answer can never satisfy a certified request and a
// loose-ε approximation can never answer a tight-ε one. The cache stores
// each key as the SHA-256 of that combination, so two keys share an entry
// only through a SHA-256 collision.
//
// Failed solves are never stored. In particular a canceled or
// deadline-expired solve leaves no entry behind: its singleflight waiters
// receive the cancellation error and the key is cleared, so the next
// request re-solves from scratch rather than observing a poisoned entry.
package servecache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// errNilResult guards against a solve callback returning (nil, nil).
var errNilResult = errors.New("servecache: solve returned neither result nor error")

// Options is the solve-relevant option set that participates in the cache
// key. Every field that can change the answer (or its certification status)
// must appear here; see the regression tests for the near-miss pairs.
type Options struct {
	// Problem is "mean" or "ratio" (resolved, never empty).
	Problem string
	// Maximize flips to the maximum cycle mean/ratio.
	Maximize bool
	// Algorithm is the resolved solver name ("howard" when the request left
	// it empty). Different algorithms may return different (equally optimal)
	// critical cycles, so they never share an entry.
	Algorithm string
	// Kernelize records whether the prep reductions ran.
	Kernelize bool
	// Certify records whether the stored result carries a verified proof. A
	// cached uncertified result must never answer a certified request.
	Certify bool
	// ApproxEpsilon, ApproxMode, and ApproxSharpen are the approximation-tier
	// knobs (algorithm "approx" only; zero values otherwise). They change the
	// answer or its error bound, so near-miss requests never share an entry.
	// ApproxMode is stored canonicalized ("chkl" or "ap", never empty) so the
	// default spelling and the explicit one hit the same key.
	ApproxEpsilon float64
	ApproxMode    string
	ApproxSharpen bool
}

// Key is the full cache key: what graph, solved how.
type Key struct {
	Graph graph.Fingerprint
	Opt   Options
}

// digest is the SHA-256 of a Key's fields, the form the cache stores: one
// 32-byte array instead of the fingerprint plus four strings, held once per
// entry.
type digest [sha256.Size]byte

// digest encodes every field of k, strings length-prefixed so adjacent
// fields cannot run together, and hashes the encoding.
func (k Key) digest() digest {
	var buf [128]byte
	b := append(buf[:0], k.Graph[:]...)
	appendString := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	appendBool := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	o := k.Opt
	appendString(o.Problem)
	appendBool(o.Maximize)
	appendString(o.Algorithm)
	appendBool(o.Kernelize)
	appendBool(o.Certify)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.ApproxEpsilon))
	appendString(o.ApproxMode)
	appendBool(o.ApproxSharpen)
	return sha256.Sum256(b)
}

// Result is the request-independent solve outcome the cache stores: exactly
// the fields of a successful serve response that depend only on the graph
// and the options, never on the requesting client. Cached Results are
// shared across goroutines — treat them (including the Cycle slice) as
// immutable.
type Result struct {
	Value     numeric.Rat
	Cycle     []graph.ArcID
	Exact     bool
	Certified bool
	// Approx marks a non-exact value; ErrorBound is the certified interval
	// width when the approximation tier produced it (zero for exact answers).
	Approx     bool
	ErrorBound float64
	Counts     counter.Counts
}

// Source reports how Do obtained its result.
type Source int

const (
	// SourceSolve: this call ran the solve (cache miss, singleflight leader).
	SourceSolve Source = iota
	// SourceHit: a stored result was returned without any solve work.
	SourceHit
	// SourceMerged: the call waited on another in-flight solve of the same
	// key and shares its outcome (including its error).
	SourceMerged
)

// String returns "solve", "hit", or "merged".
func (s Source) String() string {
	switch s {
	case SourceSolve:
		return "solve"
	case SourceHit:
		return "hit"
	case SourceMerged:
		return "merged"
	}
	return "unknown"
}

// flight is one in-flight solve; waiters block on done, then read res/err.
type flight struct {
	done chan struct{}
	res  *Result
	err  error
}

// Cache is the bounded LRU + singleflight store. Create with New; all
// methods are safe for concurrent use.
type Cache struct {
	tracer *obs.Trace

	mu       sync.Mutex
	capacity int
	entries  map[digest]*entry
	lru      entry // list sentinel: lru.next is the most recent entry
	inflight map[digest]*flight

	hits   atomic.Int64
	misses atomic.Int64
	evicts atomic.Int64
	merges atomic.Int64
}

// entry is one stored result, linked into the LRU list in place.
type entry struct {
	key        digest
	res        *Result
	prev, next *entry
}

// unlink removes e from the LRU list.
func (e *entry) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// pushFront links e in as the most recent entry.
func (c *Cache) pushFront(e *entry) {
	e.prev, e.next = &c.lru, c.lru.next
	c.lru.next.prev = e
	c.lru.next = e
}

// New returns a Cache bounded to capacity stored results (clamped to at
// least 1). tracer, when non-nil, receives one obs.ServeCacheEvent per
// hit/miss/evict/merge — internal/serve wires it to the same obs.Metrics
// that /debug/vars serves.
func New(capacity int, tracer *obs.Trace) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{
		tracer:   tracer,
		capacity: capacity,
		entries:  make(map[digest]*entry),
		inflight: make(map[digest]*flight),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Entries      int   `json:"entries"`
	Capacity     int   `json:"capacity"`
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Evictions    int64 `json:"evictions"`
	Singleflight int64 `json:"singleflight_merges"`
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return Stats{
		Entries:      n,
		Capacity:     c.capacity,
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Evictions:    c.evicts.Load(),
		Singleflight: c.merges.Load(),
	}
}

// Len returns the number of stored results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Do returns the result for key, running solve at most once across all
// concurrent callers of the same key:
//
//   - stored result: returned immediately (SourceHit), no solve.
//   - another call already solving the key: this call waits for it and
//     shares its outcome, success or error (SourceMerged). A waiter whose
//     own ctx expires first unblocks with its own ctx error.
//   - otherwise: this call is the leader (SourceSolve); it runs solve(ctx)
//     and, on success only, stores the result (evicting the least recently
//     used entries beyond capacity). A failed or canceled solve stores
//     nothing — the key is cleared so the next request re-solves.
//
// solve receives the leader's ctx unchanged; deadline handling stays with
// the caller.
func (c *Cache) Do(ctx context.Context, k Key, solve func(ctx context.Context) (*Result, error)) (*Result, Source, error) {
	key := k.digest()
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		e.unlink()
		c.pushFront(e)
		res := e.res
		entries := len(c.entries)
		c.mu.Unlock()
		c.hits.Add(1)
		c.tracer.ServeCache(obs.ServeCacheEvent{Op: obs.CacheHit, Entries: entries})
		return res, SourceHit, nil
	}
	if fl, ok := c.inflight[key]; ok {
		entries := len(c.entries)
		c.mu.Unlock()
		c.merges.Add(1)
		c.tracer.ServeCache(obs.ServeCacheEvent{Op: obs.CacheMerge, Entries: entries})
		select {
		case <-fl.done:
			return fl.res, SourceMerged, fl.err
		case <-ctx.Done():
			return nil, SourceMerged, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	entries := len(c.entries)
	c.mu.Unlock()
	c.misses.Add(1)
	c.tracer.ServeCache(obs.ServeCacheEvent{Op: obs.CacheMiss, Entries: entries})

	res, err := solve(ctx)
	if err == nil && res == nil {
		// Defensive: a nil success must not be stored or handed to waiters.
		err = errNilResult
	}
	fl.res, fl.err = res, err

	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.store(key, res)
	}
	c.mu.Unlock()
	close(fl.done)
	return res, SourceSolve, err
}

// Get returns the stored result for key without solving, or nil. It counts
// as a hit/miss like Do; used by read-only probes and tests.
func (c *Cache) Get(k Key) *Result {
	c.mu.Lock()
	e, ok := c.entries[k.digest()]
	if !ok {
		entries := len(c.entries)
		c.mu.Unlock()
		c.misses.Add(1)
		c.tracer.ServeCache(obs.ServeCacheEvent{Op: obs.CacheMiss, Entries: entries})
		return nil
	}
	e.unlink()
	c.pushFront(e)
	res := e.res
	entries := len(c.entries)
	c.mu.Unlock()
	c.hits.Add(1)
	c.tracer.ServeCache(obs.ServeCacheEvent{Op: obs.CacheHit, Entries: entries})
	return res
}

// store inserts under c.mu, evicting beyond capacity.
func (c *Cache) store(key digest, res *Result) {
	if e, ok := c.entries[key]; ok {
		// A racing leader for the same key already stored (possible when a
		// failed leader's key was re-solved); keep the newest.
		e.res = res
		e.unlink()
		c.pushFront(e)
		return
	}
	e := &entry{key: key, res: res}
	c.entries[key] = e
	c.pushFront(e)
	for len(c.entries) > c.capacity {
		oldest := c.lru.prev
		oldest.unlink()
		delete(c.entries, oldest.key)
		c.evicts.Add(1)
		c.tracer.ServeCache(obs.ServeCacheEvent{Op: obs.CacheEvict, Entries: len(c.entries)})
	}
}
