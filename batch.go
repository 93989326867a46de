package asymfence

import (
	"context"

	"asymfence/internal/experiments"
	"asymfence/internal/experiments/runner"
)

// SimJob identifies one simulation: a single (workload, design, machine
// size) run. Jobs with equal canonical content (the unused sizing field
// is ignored) share one cached measurement.
type SimJob struct {
	// Group is the workload group: "cilk", "ustm" or "stamp".
	Group string
	// App is the application name within the group (see WorkloadApps).
	App    string
	Design Design
	// Cores is the simulated core count.
	Cores int
	// Scale sizes execution-time runs (cilk, stamp); ignored by ustm.
	Scale float64
	// Horizon is the throughput-run length in cycles (ustm only).
	Horizon int64
}

// BatchOptions tune RunBatch; the embedded RunConfig carries the shared
// execution environment (worker pool, progress, accounting, metrics,
// persistent store).
type BatchOptions struct {
	RunConfig
}

// RunBatch executes a flat batch of simulation jobs on a bounded worker
// pool against the process-wide measurement cache, backed by the
// persistent store when RunConfig.Store is set. Results return
// positionally — results[i] belongs to jobs[i], whatever the
// scheduling — so callers merge deterministically. Cancel ctx to abort;
// the error then wraps context.Canceled.
func RunBatch(ctx context.Context, jobs []SimJob, opts BatchOptions) ([]*WorkloadMeasurement, error) {
	eng := experiments.NewEngine(experiments.EngineOptions{
		Workers: opts.Jobs, Progress: opts.Progress, Metrics: opts.Metrics, Store: opts.Store,
	})
	specs := make([]runner.Spec, len(jobs))
	for i, j := range jobs {
		specs[i] = runner.Spec{
			Group: j.Group, App: j.App, Design: j.Design,
			Cores: j.Cores, Scale: j.Scale, Horizon: j.Horizon,
		}
	}
	ms, err := eng.RunSpecs(ctx, specs)
	if opts.Stats != nil {
		es := eng.Stats()
		*opts.Stats = RunStats{Jobs: es.Jobs, CacheHits: es.Hits, StoreHits: es.StoreHits, Simulated: es.Simulated}
	}
	return ms, err
}
