package experiments_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asymfence/internal/experiments"
	"asymfence/internal/fence"
	"asymfence/internal/metrics"
	"asymfence/internal/stats"
)

// The tests in this file run the engine's worker pool over a fake
// simulation, exec, whose measurement carries the job's key in App.

// spec builds a distinct Spec for index i.
func spec(i int) experiments.Spec {
	return experiments.Spec{Group: "cilk", App: fmt.Sprintf("app%d", i), Design: fence.WSPlus, Cores: 8, Scale: 0.25}
}

// fake is a measurement identifying the job that made it; its Agg lets
// a MeasurementStore write it.
func fake(sp experiments.Spec) *experiments.Measurement {
	return &experiments.Measurement{App: sp.Key(), Agg: new(stats.Core)}
}

// echoExec returns each spec's fake measurement, counting executions.
func echoExec(calls *atomic.Int64) func(context.Context, experiments.Spec) (*experiments.Measurement, error) {
	return func(_ context.Context, sp experiments.Spec) (*experiments.Measurement, error) {
		calls.Add(1)
		return fake(sp), nil
	}
}

// isolate empties the process-wide memo now and when the test ends, so
// the test's fake measurements and the other tests' simulations never
// meet.
func isolate(t *testing.T) {
	experiments.FlushCache()
	t.Cleanup(experiments.FlushCache)
}

// runStats runs one batch on e and returns its results and e's
// accounting.
func runStats(t *testing.T, c experiments.RunConfig, exec func(context.Context, experiments.Spec) (*experiments.Measurement, error), specs []experiments.Spec) ([]*experiments.Measurement, experiments.RunStats) {
	t.Helper()
	var st experiments.RunStats
	c.Stats = &st
	e := experiments.NewEngineWithExec(c, exec)
	ms, err := e.RunSpecs(context.Background(), specs)
	e.Report()
	if err != nil {
		t.Fatalf("RunSpecs: %v", err)
	}
	return ms, st
}

// checkResults fails unless got[i] is specs[i]'s fake measurement.
func checkResults(t *testing.T, got []*experiments.Measurement, specs []experiments.Spec) {
	t.Helper()
	for i, sp := range specs {
		if got[i].App != sp.Key() {
			t.Fatalf("results[%d] = %q, want %q", i, got[i].App, sp.Key())
		}
	}
}

func TestRunPositionalResults(t *testing.T) {
	isolate(t)
	var calls atomic.Int64
	specs := make([]experiments.Spec, 16)
	for i := range specs {
		specs[i] = spec(len(specs) - 1 - i) // reverse order: merge must not depend on scheduling
	}
	got, _ := runStats(t, experiments.RunConfig{Jobs: 4}, echoExec(&calls), specs)
	checkResults(t, got, specs)
	if n := calls.Load(); n != 16 {
		t.Errorf("exec ran %d times, want 16", n)
	}
}

// TestInBatchDedup: repeats of a key within one batch never re-execute,
// and count as cache hits whatever the pool size.
func TestInBatchDedup(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			isolate(t)
			var calls atomic.Int64
			// 24 jobs over 3 unique keys.
			var specs []experiments.Spec
			for i := 0; i < 24; i++ {
				specs = append(specs, spec(i%3))
			}
			got, st := runStats(t, experiments.RunConfig{Jobs: workers}, echoExec(&calls), specs)
			checkResults(t, got, specs)
			if n := calls.Load(); n != 3 {
				t.Errorf("exec ran %d times for 3 unique keys, want 3", n)
			}
			if st.Jobs != 24 || st.Simulated != 3 || st.CacheHits != 21 {
				t.Errorf("Stats = %+v, want {Jobs:24 CacheHits:21 Simulated:3}", st)
			}
		})
	}
}

func TestCrossRunMemoization(t *testing.T) {
	isolate(t)
	var calls atomic.Int64
	specs := []experiments.Spec{spec(0), spec(1), spec(2)}
	runStats(t, experiments.RunConfig{Jobs: 2}, echoExec(&calls), specs)
	// A fresh engine shares the memo and must serve everything as hits.
	_, st := runStats(t, experiments.RunConfig{Jobs: 2}, echoExec(&calls), specs)
	if n := calls.Load(); n != 3 {
		t.Errorf("exec ran %d times across two engines, want 3", n)
	}
	if st.CacheHits != 3 || st.Simulated != 0 {
		t.Errorf("second engine Stats = %+v, want 3 hits, 0 simulated", st)
	}
	if n := experiments.MemoLen(); n != 3 {
		t.Errorf("memo holds %d measurements, want 3", n)
	}
	experiments.FlushCache()
	if n := experiments.MemoLen(); n != 0 {
		t.Errorf("memo holds %d measurements after FlushCache, want 0", n)
	}
}

// TestSimulatedJobsCarryProfilerLabels: exec, the simulation, runs
// under the spec's workload, design and cores profiler labels beside
// the worker's, which is what a CPU profile of a regeneration (go test
// -cpuprofile on the root figure benchmarks) attributes samples by. A
// batch the memo or the store serves whole never reaches exec, so
// those hits need no labels.
func TestSimulatedJobsCarryProfilerLabels(t *testing.T) {
	isolate(t)
	var calls atomic.Int64
	exec := func(ctx context.Context, sp experiments.Spec) (*experiments.Measurement, error) {
		calls.Add(1)
		for _, l := range [][2]string{
			{"workload", sp.Group + ":" + sp.App},
			{"design", sp.Design.String()},
			{"cores", strconv.Itoa(sp.Cores)},
			{"subsystem", "runner"},
		} {
			if got, ok := pprof.Label(ctx, l[0]); !ok || got != l[1] {
				t.Errorf("%s: profiler label %s = %q, %v; want %q", sp, l[0], got, ok, l[1])
			}
		}
		return fake(sp), nil
	}
	specs := []experiments.Spec{
		{Group: "cilk", App: "fib", Design: fence.WSPlus, Cores: 8, Scale: 0.25},
		{Group: "ustm", App: "List", Design: fence.SPlus, Cores: 4, Horizon: 3000},
		{Group: "stamp", App: "kmeans", Design: fence.Wee, Cores: 16, Scale: 0.5},
	}
	st, err := experiments.OpenMeasurementStore(t.TempDir(), experiments.MeasurementStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := experiments.RunConfig{Jobs: 2, Store: st}
	runStats(t, c, exec, specs)
	if n := calls.Load(); n != int64(len(specs)) {
		t.Fatalf("cold batch: exec ran %d times, want %d", n, len(specs))
	}

	// Every job a cache hit, then every job a store hit.
	runStats(t, c, exec, specs)
	experiments.FlushCache()
	runStats(t, c, exec, specs)
	if n := calls.Load(); n != int64(len(specs)) {
		t.Fatalf("warm batches reached exec %d times, want 0", n-int64(len(specs)))
	}
}

func TestErrorSelectionPrefersLowestIndex(t *testing.T) {
	isolate(t)
	boom := errors.New("boom")
	exec := func(_ context.Context, sp experiments.Spec) (*experiments.Measurement, error) {
		if sp.App == "app1" || sp.App == "app3" {
			return nil, fmt.Errorf("%s: %w", sp.App, boom)
		}
		return fake(sp), nil
	}
	e := experiments.NewEngineWithExec(experiments.RunConfig{Jobs: 1}, exec)
	_, err := e.RunSpecs(context.Background(), []experiments.Spec{spec(0), spec(1), spec(2), spec(3)})
	if !errors.Is(err, boom) {
		t.Fatalf("RunSpecs error = %v, want wrapped boom", err)
	}
	// Jobs=1 executes in order; app1 fails first and must be the error
	// reported, with app3 never reached (fail-fast cancel).
	if want := "app1: boom"; err.Error() != want {
		t.Errorf("RunSpecs error = %q, want %q", err, want)
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("genuine failure must not read as cancellation: %v", err)
	}
}

func TestCanceledContext(t *testing.T) {
	isolate(t)
	var calls atomic.Int64
	exec := func(ctx context.Context, sp experiments.Spec) (*experiments.Measurement, error) {
		calls.Add(1)
		// Model a cooperative simulation: observe cancellation promptly.
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
			return fake(sp), nil
		}
	}
	e := experiments.NewEngineWithExec(experiments.RunConfig{Jobs: 2}, exec)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-canceled: every job must be skipped or abort
	_, err := e.RunSpecs(ctx, []experiments.Spec{spec(0), spec(1), spec(2), spec(3)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSpecs error = %v, want wrapped context.Canceled", err)
	}
	// Canceled executions are not results; the memo must not retain them.
	if n := experiments.MemoLen(); n != 0 {
		t.Errorf("memo holds %d measurements after a canceled batch, want 0 (no pollution)", n)
	}
	// A later, uncanceled run must execute everything afresh.
	calls.Store(0)
	specs := []experiments.Spec{spec(0), spec(1)}
	got, err := e.RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatalf("post-cancel RunSpecs: %v", err)
	}
	checkResults(t, got, specs)
	if n := calls.Load(); n != 2 {
		t.Errorf("post-cancel exec ran %d times, want 2", n)
	}
}

func TestSpecKeyCanonical(t *testing.T) {
	a := experiments.Spec{Group: "ustm", App: "counter", Design: fence.WPlus, Cores: 8, Horizon: 60_000}
	b := a
	if a.Key() != b.Key() {
		t.Fatalf("equal specs disagree on key: %q vs %q", a.Key(), b.Key())
	}
	c := a
	c.Cores = 16
	if a.Key() == c.Key() {
		t.Errorf("different core counts share key %q", a.Key())
	}
	d := experiments.Spec{Group: "cilk", App: "fib", Design: fence.Wee, Cores: 4, Scale: 0.1}
	e := d
	e.Scale = 0.25
	if d.Key() == e.Key() {
		t.Errorf("different scales share key %q", d.Key())
	}
}

// TestTierReadThroughAndWriteBehind: a memo miss reads through to the
// store, a fresh result is written to it, and within one batch the
// store is consulted once per distinct key.
func TestTierReadThroughAndWriteBehind(t *testing.T) {
	isolate(t)
	dir := t.TempDir()
	sreg := metrics.NewRegistry()
	st, err := experiments.OpenMeasurementStore(dir, experiments.MeasurementStoreOptions{Metrics: sreg})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	specs := []experiments.Spec{spec(0), spec(1), spec(2)}

	// Cold: everything simulates and lands in the store.
	_, cold := runStats(t, experiments.RunConfig{Jobs: 2, Store: st}, echoExec(&calls), specs)
	if cold.Simulated != 3 || cold.StoreHits != 0 {
		t.Fatalf("cold Stats = %+v, want 3 simulated, 0 store hits", cold)
	}
	if files, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.rec")); err != nil || len(files) != 3 {
		t.Fatalf("store holds %d records after cold run (%v), want 3", len(files), err)
	}

	// Warm with an empty memo: every job reads through, and nothing
	// simulates.
	experiments.FlushCache()
	got, warm := runStats(t, experiments.RunConfig{Jobs: 2, Store: st}, echoExec(&calls), specs)
	checkResults(t, got, specs)
	if warm.Simulated != 0 || warm.StoreHits != 3 || warm.CacheHits != 0 {
		t.Fatalf("warm Stats = %+v, want 3 store hits only", warm)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("exec ran %d times across cold+warm, want 3", n)
	}
	// The store's own counters agree: 3 cold misses, 3 warm hits.
	js := string(sreg.JSON())
	for _, want := range []string{`"store.hits": 3`, `"store.misses": 3`} {
		if !strings.Contains(js, want) {
			t.Fatalf("metrics snapshot missing %q:\n%s", want, js)
		}
	}

	// Within one warm batch, repeats resolve in memory: the store is
	// consulted once per unique key, not once per job.
	experiments.FlushCache()
	lookups := func() int64 {
		return sreg.Scope("store").Counter("hits").Value() + sreg.Scope("store").Counter("misses").Value()
	}
	before := lookups()
	dups := []experiments.Spec{spec(0), spec(0), spec(0), spec(0)}
	_, dup := runStats(t, experiments.RunConfig{Jobs: 4, Store: st}, echoExec(&calls), dups)
	if n := lookups() - before; n != 1 {
		t.Fatalf("store consulted %d times for 1 unique key, want 1", n)
	}
	if dup.StoreHits != 1 || dup.CacheHits != 3 || dup.Simulated != 0 {
		t.Fatalf("dup Stats = %+v, want 1 store hit + 3 memory hits", dup)
	}
}

func TestEtaString(t *testing.T) {
	now := time.Now()
	if got := experiments.EtaString(now, 0, 10); got != "" {
		t.Errorf("eta with no completed jobs = %q, want empty", got)
	}
	if got := experiments.EtaString(now.Add(-time.Second), 10, 10); got != "" {
		t.Errorf("eta when done = %q, want empty", got)
	}
	if got := experiments.EtaString(now, 1, 10); got != "" {
		t.Errorf("eta under the 10ms settle window = %q, want empty", got)
	}
	// 2 of 10 jobs done after 2s -> 8s left, rounded to 100ms.
	got := experiments.EtaString(now.Add(-2*time.Second), 2, 10)
	if !strings.HasPrefix(got, "  eta 8") || !strings.HasSuffix(got, "s") {
		t.Errorf("eta = %q, want \"  eta 8s\"", got)
	}
	// 1 of 100 after 2s -> 198s left, rounded to whole seconds.
	if got := experiments.EtaString(now.Add(-2*time.Second), 1, 100); got != "  eta 3m18s" {
		t.Errorf("eta = %q, want \"  eta 3m18s\"", got)
	}
}

// TestEngineMetrics asserts the engine reports jobs, misses and hits
// into its scope, and that scheduling-dependent quantities land under
// timing.
func TestEngineMetrics(t *testing.T) {
	isolate(t)
	reg := metrics.NewRegistry()
	e := experiments.NewEngineWithExec(experiments.RunConfig{Jobs: 2, Metrics: reg},
		func(ctx context.Context, sp experiments.Spec) (*experiments.Measurement, error) {
			return fake(sp), nil
		})
	specs := []experiments.Spec{{App: "a", Cores: 1}, {App: "b", Cores: 2}, {App: "a", Cores: 1}}
	if _, err := e.RunSpecs(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunSpecs(context.Background(), specs[:1]); err != nil {
		t.Fatal(err)
	}
	e.Report()

	sc := reg.Scope("engine")
	if got := sc.Counter("jobs").Value(); got != 4 {
		t.Errorf("engine.jobs = %d, want 4", got)
	}
	if got := sc.Scope("cache").Counter("misses").Value(); got != 2 {
		t.Errorf("engine.cache.misses = %d, want 2 (two unique specs)", got)
	}
	if got := sc.Scope("cache").Counter("hits").Value(); got != 2 {
		t.Errorf("engine.cache.hits = %d, want 2 (dup in batch + warm rerun)", got)
	}
	if got := sc.Timing().Histogram("job_latency_ns").Count(); got != 4 {
		t.Errorf("timing job_latency_ns count = %d, want 4", got)
	}
	if got := sc.Timing().Gauge("workers").Value(); got != 2 {
		t.Errorf("timing workers = %d, want 2", got)
	}
}

// TestJobLatencyBounds: the job-latency buckets rise strictly from 10µs
// to 100s with no two neighbours more than 1.26× apart, so a p50 over
// store hits is not interpolated across a decade.
func TestJobLatencyBounds(t *testing.T) {
	b := experiments.JobLatencyBounds
	if b[0] != 10_000 || b[len(b)-1] != 100_000_000_000 {
		t.Fatalf("bounds run from %d to %d ns, want 1e4 to 1e11", b[0], b[len(b)-1])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] || float64(b[i]) > 1.26*float64(b[i-1]) {
			t.Errorf("bounds %d and %d ns: want a rise of at most 1.26x", b[i-1], b[i])
		}
	}
}

// chunkRecorder records each underlying Write call separately so tests
// can assert line atomicity.
type chunkRecorder struct {
	mu     sync.Mutex
	chunks []string
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.chunks = append(c.chunks, string(p))
	c.mu.Unlock()
	return len(p), nil
}

// TestProgressNoMidLineInterleave runs a batch over eight workers that
// all write progress lines to one writer, and asserts every underlying
// Write is one whole line about one job. Run under -race this also
// checks the locking.
func TestProgressNoMidLineInterleave(t *testing.T) {
	isolate(t)
	const jobs = 1600
	var cr chunkRecorder
	specs := make([]experiments.Spec, jobs)
	for i := range specs {
		specs[i] = spec(i)
	}
	var calls atomic.Int64
	runStats(t, experiments.RunConfig{Jobs: 8, Progress: &cr}, echoExec(&calls), specs)
	if len(cr.chunks) != jobs {
		t.Fatalf("saw %d writes, want one per job (%d)", len(cr.chunks), jobs)
	}
	line := regexp.MustCompile(`^\[ *\d+\.\d\ds\] job +(\d+)/1600  (cilk:app\d+@WS\+ p8 x0\.25) +simulated(  eta \S+)?\n$`)
	seen := map[string]bool{}
	for _, ch := range cr.chunks {
		m := line.FindStringSubmatch(ch)
		if m == nil {
			t.Fatalf("write is not one whole progress line: %q", ch)
		}
		if seen[m[1]] || seen[m[2]] {
			t.Fatalf("line %q repeats a count or a job", ch)
		}
		seen[m[1]], seen[m[2]] = true, true
	}
}
