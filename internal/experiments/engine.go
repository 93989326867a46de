package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"asymfence/internal/fence"
	"asymfence/internal/metrics"
)

// Spec identifies one simulation job: a single (workload, design,
// machine size) run. Its Key is the canonical content key the memo and
// the store address results by, so two Specs with equal keys are
// interchangeable.
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

// Key returns the canonical content key. Scale is formatted with
// strconv's shortest round-trip representation so equal values always
// produce equal keys.
func (s Spec) Key() string {
	return s.Group + ":" + s.App + "@" + s.Design.String() +
		"/p" + strconv.Itoa(s.Cores) +
		"/s" + strconv.FormatFloat(s.Scale, 'g', -1, 64) +
		"/h" + strconv.FormatInt(s.Horizon, 10)
}

// String returns a compact human-readable form for progress lines.
func (s Spec) String() string {
	id := s.Group + ":" + s.App + "@" + s.Design.String() + " p" + strconv.Itoa(s.Cores)
	if s.Horizon > 0 {
		return id + " h" + strconv.FormatInt(s.Horizon, 10)
	}
	return id + " x" + strconv.FormatFloat(s.Scale, 'g', -1, 64)
}

// RunConfig is the execution environment of an Engine. Every field
// uses "unset means default" semantics: the zero value is a valid
// configuration (default pool, no progress lines, no accounting, no
// metrics, no persistence).
type RunConfig struct {
	// Jobs bounds the simulation worker pool (<=0: GOMAXPROCS;
	// 1: fully sequential execution). Tables are byte-identical at any
	// setting; only wall-clock changes.
	Jobs int
	// Progress, when non-nil, receives one line per job (done/total,
	// where its result came from, elapsed) while a run executes.
	Progress io.Writer
	// Stats, when non-nil, is filled with the run's job accounting by
	// Engine.Report.
	Stats *RunStats
	// Metrics, when non-nil, receives every simulation's machine
	// counters (under "machine"), the engine's job accounting when it
	// reports and its wall-clock instruments (under "engine"). Sharing
	// one registry across concurrent jobs is safe: counter updates
	// commute, so the deterministic sections of its snapshots are
	// identical at any Jobs setting.
	Metrics *metrics.Registry
	// Store, when non-nil, is the persistent measurement store behind
	// the process-wide memo: memo misses read through to it, and every
	// fresh simulation is written to disk before its job completes.
	// Warm configurations load in milliseconds instead of
	// re-simulating, in any process.
	Store *MeasurementStore
}

// RunStats is an Engine's job accounting across its batches.
type RunStats struct {
	// Jobs is the number of simulation jobs submitted.
	Jobs int
	// CacheHits of those were served from the process-wide memo, or
	// repeated an earlier job of the same batch, without simulating.
	CacheHits int
	// StoreHits were served from the persistent store (RunConfig.Store)
	// without simulating.
	StoreHits int
	// Simulated jobs actually executed. Jobs can exceed
	// CacheHits+StoreHits+Simulated when a failed or canceled batch
	// skipped jobs outright.
	Simulated int
}

// memo maps canonical job keys to finished measurements for every
// Engine in the process, so experiments that repeat each other's
// simulations (the headline repeats Figs. 8/9/11; Fig. 12's 8-core
// column repeats everything) reuse results instead of re-simulating.
// Safe because simulations are deterministic and Measurements are never
// mutated after reduce(). Two engines that miss on one key at once may
// both simulate it; both get the same measurement, and the store's
// writes are atomic and idempotent.
var memo = struct {
	sync.Mutex
	m map[string]*Measurement
}{m: map[string]*Measurement{}}

// remember adds a finished measurement to the memo.
func remember(key string, m *Measurement) {
	memo.Lock()
	memo.m[key] = m
	memo.Unlock()
}

// FlushCache drops every memoized measurement. Tests use it to force
// fresh simulations; long-lived hosts can use it to reclaim memory.
func FlushCache() {
	memo.Lock()
	clear(memo.m)
	memo.Unlock()
}

// DefaultCoreCounts is the scalability study's core-count sweep
// (Fig. 12; paper §6). This is the single place the default lives.
var DefaultCoreCounts = []int{4, 8, 16, 32}

// jobLatencyBounds bucket job wall-clock latencies from 10µs to 100s,
// ten log-spaced bounds per decade (10^(k/10) ns, each about 1.26× the
// one before), so a quantile read from the histogram is placed within
// one such step from store hits to long simulations, not inside a
// decade.
var jobLatencyBounds = func() []int64 {
	b := make([]int64, 71) // 10^4 .. 10^11 ns
	for k := range b {
		b[k] = int64(math.Round(math.Pow(10, 4+float64(k)/10)))
	}
	return b
}()

// Engine runs experiments by decomposing them into flat batches of
// simulation jobs and executing each batch on a bounded worker pool
// over the process-wide memo and the configured store. Results merge
// positionally, so every table an Engine renders is byte-identical to
// sequential output regardless of scheduling.
type Engine struct {
	cfg     RunConfig
	workers int
	// exec runs one job: the simulator, unless a test substitutes it.
	exec func(context.Context, Spec) (*Measurement, error)

	// start and mu serve the progress lines.
	start time.Time
	mu    sync.Mutex

	jobs, hits, storeHits, sims atomic.Int64

	// Wall-clock instruments, in the registry's timing section. All
	// handles are nil-safe, so a run without metrics costs nothing.
	jobLatency *metrics.Histogram
	workerBusy *metrics.Counter
	poolSize   *metrics.Gauge
}

// NewEngine builds an engine with the execution environment c.
func NewEngine(c RunConfig) *Engine {
	w := c.Jobs
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	timing := c.Metrics.Scope("engine").Timing()
	return &Engine{
		cfg: c, workers: w, start: time.Now(),
		exec: func(ctx context.Context, s Spec) (*Measurement, error) {
			m, _, err := run(ctx, s, runObs{metrics: c.Metrics})
			return m, err
		},
		jobLatency: timing.Histogram("job_latency_ns", jobLatencyBounds...),
		workerBusy: timing.Counter("worker_busy_ns"),
		poolSize:   timing.Gauge("workers"),
	}
}

// Report fills the configuration's Stats, when set, with the engine's
// job accounting across everything it has run, and adds the same
// counts to its Metrics: engine.jobs, engine.cache.hits and
// engine.cache.misses (store hits plus simulations). These count what
// was submitted and where each result came from, not how jobs were
// scheduled, so they belong to the deterministic section. Call it once,
// when the run ends, whether or not it failed.
func (e *Engine) Report() {
	st := RunStats{
		Jobs:      int(e.jobs.Load()),
		CacheHits: int(e.hits.Load()),
		StoreHits: int(e.storeHits.Load()),
		Simulated: int(e.sims.Load()),
	}
	if e.cfg.Stats != nil {
		*e.cfg.Stats = st
	}
	sc := e.cfg.Metrics.Scope("engine")
	sc.Counter("jobs").Add(int64(st.Jobs))
	sc.Scope("cache").Counter("hits").Add(int64(st.CacheHits))
	sc.Scope("cache").Counter("misses").Add(int64(st.StoreHits + st.Simulated))
}

// RunSpecs executes a batch of simulation jobs and returns the
// measurements positionally: results[i] belongs to specs[i], whatever
// the scheduling. Specs are canonicalized first (see canonSpec), so
// unset fields take their defaults and equivalent jobs share one key.
// Each distinct key runs once: a later repeat in the batch takes the
// first one's result and counts as a cache hit, at any pool size. On
// failure it returns the lowest-index genuine error; if the batch was
// only canceled, the error wraps ctx's cancellation cause so
// errors.Is(err, context.Canceled) holds.
func (e *Engine) RunSpecs(ctx context.Context, specs []Spec) ([]*Measurement, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	e.jobs.Add(int64(len(specs)))
	// The batch's distinct jobs in first-occurrence order, each with
	// the positions its result fills.
	type job struct {
		spec Spec
		key  string
		at   []int
	}
	var jobs []job
	index := make(map[string]int, len(specs))
	for i, s := range specs {
		s = canonSpec(s)
		k := s.Key()
		j, ok := index[k]
		if !ok {
			j = len(jobs)
			index[k] = j
			jobs = append(jobs, job{spec: s, key: k})
		}
		jobs[j].at = append(jobs[j].at, i)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*Measurement, len(specs))
	errs := make([]error, len(specs))
	var next, completed atomic.Int64
	batchStart := time.Now()
	workers := min(e.workers, len(jobs))
	e.poolSize.SetMax(int64(workers))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Label the worker goroutines so CPU profiles attribute samples
		// to the pool.
		go pprof.Do(ctx, pprof.Labels("subsystem", "runner", "worker", strconv.Itoa(w)),
			func(ctx context.Context) {
				defer wg.Done()
				workerStart := time.Now()
				defer func() { e.workerBusy.Add(time.Since(workerStart).Nanoseconds()) }()
				for {
					n := int(next.Add(1) - 1)
					if n >= len(jobs) {
						return
					}
					j := &jobs[n]
					if err := ctx.Err(); err != nil {
						for _, i := range j.at {
							errs[i] = err
						}
						continue
					}
					jobStart := time.Now()
					m, src, err := e.one(ctx, j.spec, j.key)
					for k, i := range j.at {
						if k > 0 {
							src = srcCache
							if err == nil {
								e.hits.Add(1)
							}
						}
						results[i], errs[i] = m, err
						e.jobLatency.Observe(time.Since(jobStart).Nanoseconds())
						e.progress(int(completed.Add(1)), len(specs), j.spec, src, err, batchStart)
					}
					if err != nil {
						// Fail fast: stop scheduling and interrupt running
						// simulations. Error selection below still prefers
						// this genuine failure over induced cancellations.
						cancel()
					}
				}
			})
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil && !isCancel(err) {
			return nil, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: batch aborted after %d of %d jobs: %w",
				completed.Load(), len(specs), err)
		}
	}
	return results, nil
}

// source says where a job's result came from; its String is the word
// the progress line prints.
type source int

// The result sources, cheapest first.
const (
	srcCache source = iota // the memo, or an earlier job of the batch
	srcStore               // the persistent store (read-through)
	srcSim                 // a fresh simulation
)

// String renders the progress word for a source.
func (s source) String() string {
	switch s {
	case srcCache:
		return "cache hit"
	case srcStore:
		return "store hit"
	}
	return "simulated"
}

// one resolves a distinct job of a batch from the memo, else from the
// store, else by running it; a fresh result is written to the store.
// Only finished measurements enter the memo: a failed or canceled run
// leaves nothing behind, and a later batch runs the job again.
func (e *Engine) one(ctx context.Context, s Spec, key string) (*Measurement, source, error) {
	memo.Lock()
	m, ok := memo.m[key]
	memo.Unlock()
	if ok {
		e.hits.Add(1)
		return m, srcCache, nil
	}
	if m, ok := e.cfg.Store.Load(key); ok {
		e.storeHits.Add(1)
		remember(key, m)
		return m, srcStore, nil
	}
	// Per-job labels so profile samples attribute to the (workload,
	// design, cores) being simulated, not just the pool slot. Only a
	// simulation is labeled: a cache or store hit takes microseconds,
	// and labels on every job were 9 % of a store-warm regeneration's
	// CPU samples.
	var err error
	pprof.Do(ctx, pprof.Labels(
		"workload", s.Group+":"+s.App,
		"design", s.Design.String(),
		"cores", strconv.Itoa(s.Cores),
	), func(ctx context.Context) {
		m, err = e.exec(ctx, s)
	})
	e.sims.Add(1)
	if err != nil {
		return nil, srcSim, err
	}
	e.cfg.Store.Store(key, m)
	remember(key, m)
	return m, srcSim, nil
}

// progress writes job done of total's line to the configured Progress
// writer (none: silent), prefixed with the wall-clock elapsed since the
// engine was built. Each line reaches the writer in one Write under the
// engine's mutex, so lines from concurrent workers never interleave
// mid-line.
func (e *Engine) progress(done, total int, s Spec, src source, err error, batchStart time.Time) {
	if e.cfg.Progress == nil {
		return
	}
	var line string
	if err != nil {
		line = fmt.Sprintf("job %3d/%d  %-34s FAILED: %v", done, total, s, err)
	} else {
		line = fmt.Sprintf("job %3d/%d  %-34s %s%s", done, total, s, src, etaString(batchStart, done, total))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	fmt.Fprintf(e.cfg.Progress, "[%7.2fs] %s\n", time.Since(e.start).Seconds(), line)
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// etaString estimates the batch's remaining wall-clock from the average
// pace so far (" eta 12s", "" once everything is done or too early to
// tell). The estimate is a progress line only — it never lands in
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

// canonSpec resolves a spec's unset fields (<=0) to their defaults —
// DefaultCores cores, and scale 1 or a USTMHorizon-cycle run, whichever
// sizes the group — and zeroes the sizing field the group ignores, so
// equal jobs get equal keys.
func canonSpec(s Spec) Spec {
	if s.Cores <= 0 {
		s.Cores = DefaultCores
	}
	if g, err := lookupGroup(s.Group); err == nil && g.throughput {
		s.Scale = 0
		if s.Horizon <= 0 {
			s.Horizon = USTMHorizon
		}
	} else {
		s.Horizon = 0
		if s.Scale <= 0 {
			s.Scale = 1
		}
	}
	return s
}

// groupSpecs is the app×design job block of one workload group at one
// machine size, apps outer and designs inner — the order every figure's
// rows follow.
func groupSpecs(g *group, ncores int, scale Scale, horizon int64) []Spec {
	specs := make([]Spec, 0, len(g.apps)*len(Designs))
	for _, app := range g.apps {
		for _, d := range Designs {
			specs = append(specs, Spec{
				Group: g.name, App: app, Design: d, Cores: ncores, Scale: float64(scale), Horizon: horizon,
			})
		}
	}
	return specs
}

// groupFrom assembles a GroupRun from measurements returned in spec
// order (apps outer, designs inner).
func groupFrom(label string, ms []*Measurement) *GroupRun {
	g := newGroupRun(label)
	for _, m := range ms {
		g.add(m)
	}
	return g
}

// RunGroup measures every application of one workload group ("cilk",
// "ustm" or "stamp") under every design. Throughput groups are sized by
// horizon, the others by scale.
func (e *Engine) RunGroup(ctx context.Context, group string, ncores int, scale Scale, horizon int64) (*GroupRun, error) {
	g, err := lookupGroup(group)
	if err != nil {
		return nil, err
	}
	ms, err := e.RunSpecs(ctx, groupSpecs(g, ncores, scale, horizon))
	if err != nil {
		return nil, err
	}
	return groupFrom(g.label, ms), nil
}

// runGroups measures every workload group at each core count as one
// flat batch (groups outer, core counts inner) and returns runs[i][j],
// groups[i] at coreCounts[j].
func (e *Engine) runGroups(ctx context.Context, coreCounts []int, scale Scale, horizon int64) ([][]*GroupRun, error) {
	var specs []Spec
	for i := range groups {
		for _, n := range coreCounts {
			specs = append(specs, groupSpecs(&groups[i], n, scale, horizon)...)
		}
	}
	ms, err := e.RunSpecs(ctx, specs)
	if err != nil {
		return nil, err
	}
	runs := make([][]*GroupRun, len(groups))
	for i := range groups {
		n := len(groups[i].apps) * len(Designs)
		for range coreCounts {
			runs[i] = append(runs[i], groupFrom(groups[i].label, ms[:n]))
			ms = ms[n:]
		}
	}
	return runs, nil
}
