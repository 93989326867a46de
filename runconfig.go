package asymfence

import (
	"io"
)

// RunConfig is the execution-environment configuration shared by every
// entry point of the harness: Options (experiments), BatchOptions
// (RunBatch), FuzzOptions (RunFuzz) and TraceOptions (TraceWorkload)
// all embed it, so the worker pool, progress narration, job accounting,
// metrics collection and the persistent measurement store are spelled
// the same way everywhere — and every entry point gains persistence by
// setting one field.
//
// Every field uses "unset means default" semantics: the zero value is a
// valid configuration (default pool, no narration, no accounting, no
// metrics, no persistence).
//
// Entry points that memoize simulations (experiments, RunBatch) honor
// every field. TraceWorkload runs exactly one instrumented simulation,
// so it uses Metrics only; RunFuzz explores seeded campaigns whose runs
// are never memoized, so it uses Progress (one line per seed) and
// Metrics only.
type RunConfig struct {
	// Jobs bounds the simulation worker pool (<=0: GOMAXPROCS;
	// 1: fully sequential execution). Tables are byte-identical at any
	// setting; only wall-clock changes.
	Jobs int
	// Progress, when non-nil, receives per-job progress lines
	// (done/total, cache and store hits, elapsed) while a run executes.
	Progress io.Writer
	// Stats, when non-nil, is filled with the run's job accounting on
	// return (including on error).
	Stats *RunStats
	// Metrics, when non-nil, receives the run's machine and engine
	// counters (see MetricsRegistry). Sharing one registry across
	// concurrent jobs is safe; the deterministic sections of its
	// snapshots are identical at any Jobs setting.
	Metrics *MetricsRegistry
	// Store, when non-nil, is an open persistent measurement store
	// (see OpenStore) layered under the process-wide in-memory cache:
	// memory misses read through to it, and every fresh simulation is
	// written to disk before its job completes. Warm configurations
	// load in milliseconds instead of re-simulating, in any process.
	Store *MeasurementStore
}

// RunStats summarizes the engine's job accounting for one run.
type RunStats struct {
	// Jobs is the number of simulation jobs the run submitted.
	Jobs int
	// CacheHits of those were served from the in-memory measurement
	// cache (or joined an identical in-flight job) without simulating.
	CacheHits int
	// StoreHits were served from the persistent measurement store
	// (RunConfig.Store) without simulating.
	StoreHits int
	// Simulated jobs actually executed.
	Simulated int
}
