package asymfence

import (
	"context"

	"asymfence/internal/experiments/runner"
)

// SimJob identifies one simulation: a single (workload, design, machine
// size) run. Group is one of WorkloadGroups and App one of its
// WorkloadApps; Scale sizes run-to-completion groups (cilk, stamp) and
// Horizon, in cycles, the throughput group (ustm). Jobs with equal
// canonical content (the unused sizing field is ignored) share one
// cached measurement.
type SimJob = runner.Spec

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
	eng := cfg.engine()
	ms, err := eng.RunSpecs(ctx, jobs)
	cfg.report(eng)
	return ms, err
}
