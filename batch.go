package asymfence

import (
	"context"

	"asymfence/internal/experiments"
)

// SimJob identifies one simulation: a single (workload, design, machine
// size) run. Group is one of WorkloadGroups and App one of its
// WorkloadApps; Scale sizes run-to-completion groups (cilk, stamp) and
// Horizon, in cycles, the throughput group (ustm). Jobs with equal
// canonical content (the unused sizing field is ignored) share one
// cached measurement.
type SimJob = experiments.Spec

// RunConfig is the execution environment of the entry points that run
// simulation jobs: Options (experiments) embeds it and RunBatch takes
// it, so the worker pool (Jobs), progress lines (Progress), job
// accounting (Stats), metrics collection (Metrics) and the persistent
// measurement store (Store) are spelled the same way for both, and both
// reach the simulator through the one job path. Entry points that run
// one instrumented or unmemoized simulation at a time (TraceWorkload,
// RunConform) declare only the fields they read in their own options.
//
// Every field uses "unset means default" semantics: the zero value is a
// valid configuration (default pool, no progress lines, no accounting,
// no metrics, no persistence). Stats is filled when the run returns,
// also on error.
type RunConfig = experiments.RunConfig

// RunStats summarizes the engine's job accounting for one run: the jobs
// submitted, and how many of them were cache hits, store hits or
// simulated.
type RunStats = experiments.RunStats

// RunBatch executes a flat batch of simulation jobs. Every simulation
// in the harness — experiments, RunBatch and TraceWorkload — runs
// through the same job path, so a job measures the same here as
// anywhere else. Jobs run on a bounded worker pool against the
// process-wide measurement cache, backed by the persistent store when
// cfg.Store is set. Results return positionally — results[i] belongs
// to jobs[i], whatever the scheduling — so callers merge
// deterministically. Cancel ctx to abort; the error then wraps
// context.Canceled.
func RunBatch(ctx context.Context, jobs []SimJob, cfg RunConfig) ([]*WorkloadMeasurement, error) {
	eng := experiments.NewEngine(cfg)
	ms, err := eng.RunSpecs(ctx, jobs)
	eng.Report()
	return ms, err
}
