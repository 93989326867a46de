package asymfence

import (
	"io"

	"asymfence/internal/experiments"
)

// RunConfig is the execution environment of the entry points that run
// simulation jobs: Options (experiments) embeds it and RunBatch takes
// it, so the worker pool, progress narration, job accounting, metrics
// collection and the persistent measurement store are spelled the same
// way for both, and both reach the simulator through the one job path.
// Entry points that run one instrumented or unmemoized simulation at a
// time (TraceWorkload, RunConform) declare only the fields
// they read in their own options.
//
// Every field uses "unset means default" semantics: the zero value is a
// valid configuration (default pool, no narration, no accounting, no
// metrics, no persistence).
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

// engine builds the experiment engine c describes.
func (c RunConfig) engine() *experiments.Engine {
	return experiments.NewEngine(experiments.EngineOptions{
		Workers: c.Jobs, Progress: c.Progress, Metrics: c.Metrics, Store: c.Store,
	})
}

// report fills c.Stats, when set, with eng's job accounting.
func (c RunConfig) report(eng *experiments.Engine) {
	if c.Stats != nil {
		es := eng.Stats()
		*c.Stats = RunStats{Jobs: es.Jobs, CacheHits: es.Hits, StoreHits: es.StoreHits, Simulated: es.Simulated}
	}
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
