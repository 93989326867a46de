// Package runner is the parallel memoizing engine behind the experiment
// harness: it executes flat batches of self-describing simulation jobs
// on a bounded worker pool and merges the results deterministically.
//
// Every evaluation artifact of the paper decomposes into independent
// (workload, design, cores) simulations, and the same simulations recur
// across artifacts (the headline repeats Figs. 8/9/11's runs; Fig. 12's
// 8-core column repeats everything again). The runner exploits both
// facts: a Session fans the jobs of one batch out over Workers
// goroutines, and a content-keyed Cache — shared across every Session
// in the process — memoizes each job's result by its canonical Spec
// key, deduplicating identical jobs within a batch (in-flight joins)
// and across batches (cache hits).
//
// Determinism: the simulator itself is deterministic (internal/sim), so
// a job's result does not depend on when or where it runs; Run returns
// results positionally (results[i] belongs to specs[i]); and error
// selection prefers the lowest-index genuine failure. Rendered tables
// are therefore byte-identical under Workers=1 and Workers=N — a test
// in the root package asserts this under the race detector.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"asymfence/internal/fence"
	"asymfence/internal/metrics"
	"asymfence/internal/trace"
)

// Spec identifies one simulation job: a single (workload, design,
// machine size) run. Its Key is the canonical content key the cache
// memoizes by, so two Specs with equal keys are interchangeable.
type Spec struct {
	// Group is the workload group: "cilk", "ustm" or "stamp".
	Group string
	// App is the application name within the group.
	App    string
	Design fence.Design
	// Cores is the simulated machine's core count.
	Cores int
	// Scale sizes execution-time runs (cilk, stamp); ignored by ustm.
	Scale float64
	// Horizon is the throughput-run length in cycles (ustm only).
	Horizon int64
}

// Key returns the canonical cache key. Scale is formatted with
// strconv's shortest round-trip representation so equal values always
// produce equal keys.
func (s Spec) Key() string {
	return s.Group + ":" + s.App + "@" + s.Design.String() +
		"/p" + strconv.Itoa(s.Cores) +
		"/s" + strconv.FormatFloat(s.Scale, 'g', -1, 64) +
		"/h" + strconv.FormatInt(s.Horizon, 10)
}

// String returns a compact human-readable form for progress narration.
func (s Spec) String() string {
	id := s.Group + ":" + s.App + "@" + s.Design.String() + " p" + strconv.Itoa(s.Cores)
	if s.Horizon > 0 {
		return id + " h" + strconv.FormatInt(s.Horizon, 10)
	}
	return id + " x" + strconv.FormatFloat(s.Scale, 'g', -1, 64)
}

// entry is one cache slot. done is closed when val/err are final; until
// then the entry is in flight and joiners wait on it.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache memoizes job results by Spec key. It is safe for concurrent
// use and implements in-flight deduplication: the first goroutine to
// ask for a key becomes its leader and computes the result, later
// askers block until the leader finishes. Results of canceled runs are
// never retained.
type Cache[V any] struct {
	mu sync.Mutex
	m  map[string]*entry[V]
}

// NewCache returns an empty cache.
func NewCache[V any]() *Cache[V] { return &Cache[V]{m: map[string]*entry[V]{}} }

// Len returns the number of resident entries (including in-flight ones).
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Flush drops every completed entry. In-flight leaders keep their slot
// so joiners already waiting on them still resolve.
func (c *Cache[V]) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.m {
		select {
		case <-e.done:
			delete(c.m, k)
		default:
		}
	}
}

// Stats is a Session's cumulative job accounting across its Run calls.
type Stats struct {
	// Jobs is the number of jobs submitted.
	Jobs int
	// Hits of those were served from the in-memory cache (or joined an
	// identical in-flight job) without simulating.
	Hits int
	// StoreHits were served from the persistent tier (Options.Tier)
	// without simulating.
	StoreHits int
	// Simulated jobs actually executed. Jobs can exceed
	// Hits+StoreHits+Simulated when a canceled batch skipped jobs
	// outright.
	Simulated int
}

// Tier is an optional persistent second tier behind the in-memory
// Cache: a Session consults it read-through on every memory miss and
// stores fresh results back into it. Implementations must be safe for
// concurrent use. internal/experiments.MeasurementStore adapts
// the on-disk content-addressed store (internal/store) to this
// interface.
type Tier[V any] interface {
	// Load returns the value stored under key, or ok=false on a miss.
	Load(key string) (v V, ok bool)
	// Store persists v under key (best-effort; a cache may drop it).
	Store(key string, v V)
}

// Options configure a Session over result type V.
type Options[V any] struct {
	// Workers bounds the pool (<=0: GOMAXPROCS).
	Workers int
	// Narrator receives per-job progress lines (nil: silent).
	Narrator *trace.Narrator
	// Tier, when non-nil, is the persistent second tier consulted on
	// memory-cache misses and filled with fresh results.
	Tier Tier[V]
	// Metrics, when non-nil, receives the session's counters (jobs,
	// cache hits/misses, store hits/misses) and — under its timing
	// sub-scope — the wall-clock instruments (job latency, worker busy
	// time, singleflight waits). Nil disables them at zero cost.
	Metrics *metrics.Scope
}

// jobLatencyBounds bucket job wall-clock latencies from 1ms to ~100s.
var jobLatencyBounds = []int64{
	1e6, 1e7, 1e8, 1e9, 1e10, 1e11, // 1ms, 10ms, 100ms, 1s, 10s, 100s
}

// sessionMetrics holds a Session's metric handles. All handles are
// nil-safe, so a zero value (metrics off) costs nothing.
type sessionMetrics struct {
	// jobs/hits/misses count scheduling-independent facts (what was
	// submitted and whether the cache had it), so they live in the
	// deterministic section — as do storeHits/storeMisses, which count
	// persistent-tier lookups by memory-miss leaders.
	jobs, hits, misses     *metrics.Counter
	storeHits, storeMisses *metrics.Counter
	// waits counts joins that actually blocked on an in-flight leader —
	// a scheduling artifact — and the remaining instruments measure
	// wall-clock, so they all live in the timing section.
	waits      *metrics.Counter
	jobLatency *metrics.Histogram
	workerBusy *metrics.Counter
	workers    *metrics.Gauge
}

// newSessionMetrics registers the session's handles. The store counters
// are registered only when a persistent tier is wired, so snapshots of
// store-less runs are unchanged by the tier's existence.
func newSessionMetrics(s *metrics.Scope, tiered bool) sessionMetrics {
	cache := s.Scope("cache")
	timing := s.Timing()
	mx := sessionMetrics{
		jobs:       s.Counter("jobs"),
		hits:       cache.Counter("hits"),
		misses:     cache.Counter("misses"),
		waits:      timing.Counter("singleflight_waits"),
		jobLatency: timing.Histogram("job_latency_ns", jobLatencyBounds...),
		workerBusy: timing.Counter("worker_busy_ns"),
		workers:    timing.Gauge("workers"),
	}
	if tiered {
		store := s.Scope("store")
		mx.storeHits = store.Counter("hits")
		mx.storeMisses = store.Counter("misses")
	}
	return mx
}

// Session executes job batches for one logical experiment run: it pins
// the worker count and narrator, shares a Cache (usually process-wide),
// and accumulates Stats across its Run calls.
type Session[V any] struct {
	cache   *Cache[V]
	exec    func(context.Context, Spec) (V, error)
	workers int
	nar     *trace.Narrator
	tier    Tier[V]
	mx      sessionMetrics

	jobs, hits, storeHits, sims atomic.Int64
}

// NewSession builds a session executing jobs with exec and memoizing
// results in cache.
func NewSession[V any](cache *Cache[V], exec func(context.Context, Spec) (V, error), opts Options[V]) *Session[V] {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Session[V]{cache: cache, exec: exec, workers: w, nar: opts.Narrator,
		tier: opts.Tier, mx: newSessionMetrics(opts.Metrics, opts.Tier != nil)}
}

// Stats returns the session's cumulative accounting.
func (s *Session[V]) Stats() Stats {
	return Stats{
		Jobs:      int(s.jobs.Load()),
		Hits:      int(s.hits.Load()),
		StoreHits: int(s.storeHits.Load()),
		Simulated: int(s.sims.Load()),
	}
}

// Run executes every spec and returns the results positionally:
// results[i] belongs to specs[i], whatever the scheduling, so callers
// merge deterministically. On failure it returns the lowest-index
// genuine error; if the batch was only canceled, the error wraps
// ctx's cancellation cause so errors.Is(err, context.Canceled) holds.
func (s *Session[V]) Run(ctx context.Context, specs []Spec) ([]V, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	s.jobs.Add(int64(len(specs)))
	s.mx.jobs.Add(int64(len(specs)))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]V, len(specs))
	errs := make([]error, len(specs))
	var next, completed atomic.Int64
	batchStart := time.Now()
	workers := s.workers
	if workers > len(specs) {
		workers = len(specs)
	}
	s.mx.workers.SetMax(int64(workers))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Label the worker goroutines so CPU profiles (`asymsim serve`
		// exposes /debug/pprof) attribute samples to the pool.
		go pprof.Do(ctx, pprof.Labels("subsystem", "runner", "worker", strconv.Itoa(w)),
			func(ctx context.Context) {
				defer wg.Done()
				workerStart := time.Now()
				defer func() { s.mx.workerBusy.Add(time.Since(workerStart).Nanoseconds()) }()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(specs) {
						return
					}
					if err := ctx.Err(); err != nil {
						errs[i] = err
						continue
					}
					jobStart := time.Now()
					var (
						v   V
						src source
						err error
					)
					// Per-job labels so profile samples attribute to
					// the (workload, design, cores) being simulated,
					// not just the pool slot.
					pprof.Do(ctx, pprof.Labels(
						"workload", specs[i].Group+":"+specs[i].App,
						"design", specs[i].Design.String(),
						"cores", strconv.Itoa(specs[i].Cores),
					), func(ctx context.Context) {
						v, src, err = s.one(ctx, specs[i])
					})
					s.mx.jobLatency.Observe(time.Since(jobStart).Nanoseconds())
					results[i], errs[i] = v, err
					done := completed.Add(1)
					eta := etaString(batchStart, int(done), len(specs))
					if err != nil {
						s.nar.Say("job %3d/%d  %-34s FAILED: %v", done, len(specs), specs[i], err)
						// Fail fast: stop scheduling and interrupt running
						// simulations. Error selection below still prefers
						// this genuine failure over induced cancellations.
						cancel()
					} else {
						s.nar.Say("job %3d/%d  %-34s %s%s", done, len(specs), specs[i], src, eta)
					}
				}
			})
	}
	wg.Wait()

	var firstErr error
	for _, e := range errs {
		if e != nil && !isCancel(e) {
			firstErr = e
			break
		}
	}
	if firstErr == nil {
		for _, e := range errs {
			if e != nil {
				firstErr = fmt.Errorf("runner: batch aborted after %d of %d jobs: %w",
					completed.Load(), len(specs), e)
				break
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// source says where a job's result came from; its String is the word
// the progress narration prints.
type source int

// The result sources, cheapest first.
const (
	srcCache source = iota // in-memory cache or in-flight join
	srcStore               // persistent tier (read-through)
	srcSim                 // fresh simulation
)

// String renders the narration word for a source.
func (s source) String() string {
	switch s {
	case srcCache:
		return "cache hit"
	case srcStore:
		return "store hit"
	}
	return "simulated"
}

// one resolves a single spec against the cache, executing it if this
// goroutine becomes the key's leader. A leader consults the persistent
// tier (read-through) before simulating, and stores fresh results back
// into it; src reports which level ultimately supplied the result.
func (s *Session[V]) one(ctx context.Context, sp Spec) (v V, src source, err error) {
	key := sp.Key()
	for {
		s.cache.mu.Lock()
		e, ok := s.cache.m[key]
		if !ok {
			e = &entry[V]{done: make(chan struct{})}
			s.cache.m[key] = e
			s.cache.mu.Unlock()
			s.mx.misses.Inc()

			src = srcSim
			if s.tier != nil {
				if tv, ok := s.tier.Load(key); ok {
					e.val = tv
					s.storeHits.Add(1)
					s.mx.storeHits.Inc()
					close(e.done)
					return e.val, srcStore, nil
				}
				s.mx.storeMisses.Inc()
			}

			e.val, e.err = s.exec(ctx, sp)
			s.sims.Add(1)
			if e.err != nil && isCancel(e.err) {
				// A canceled run is not a result: forget the slot so a
				// later, uncanceled caller re-executes.
				s.cache.mu.Lock()
				if s.cache.m[key] == e {
					delete(s.cache.m, key)
				}
				s.cache.mu.Unlock()
			}
			if e.err == nil && s.tier != nil {
				s.tier.Store(key, e.val)
			}
			close(e.done)
			return e.val, srcSim, e.err
		}
		s.cache.mu.Unlock()

		// Distinguish completed-entry hits from joins that will block on
		// an in-flight leader: blocking is a scheduling artifact, so it
		// is counted separately under the timing scope.
		select {
		case <-e.done:
		default:
			s.mx.waits.Inc()
		}

		select {
		case <-e.done:
			if e.err != nil && isCancel(e.err) {
				// The leader we joined was canceled; retry (we may
				// become the new leader) unless we are canceled too.
				if cerr := ctx.Err(); cerr != nil {
					var zero V
					return zero, srcSim, cerr
				}
				continue
			}
			s.hits.Add(1)
			s.mx.hits.Inc()
			return e.val, srcCache, e.err
		case <-ctx.Done():
			var zero V
			return zero, srcSim, ctx.Err()
		}
	}
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// etaString estimates the batch's remaining wall-clock from the average
// pace so far (" eta 12s", "" once everything is done or too early to
// tell). The estimate is progress narration only — it never lands in
// results or metrics snapshots' deterministic section.
func etaString(start time.Time, done, total int) string {
	if done <= 0 || done >= total {
		return ""
	}
	elapsed := time.Since(start)
	if elapsed < 10*time.Millisecond {
		return ""
	}
	left := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
	round := time.Second
	if left < 10*time.Second {
		round = 100 * time.Millisecond
	}
	return "  eta " + left.Round(round).String()
}
