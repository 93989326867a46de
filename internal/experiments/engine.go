package experiments

import (
	"context"
	"fmt"
	"io"

	"asymfence/internal/experiments/runner"
	"asymfence/internal/fence"
	"asymfence/internal/metrics"
	"asymfence/internal/trace"
	"asymfence/internal/workloads/cilk"
	"asymfence/internal/workloads/stamp"
	"asymfence/internal/workloads/stm"
)

// sharedCache memoizes measurements across every Engine in the process,
// so experiments that repeat each other's simulations (the headline
// repeats Figs. 8/9/11; Fig. 12's 8-core column repeats everything)
// reuse results instead of re-simulating. Safe because simulations are
// deterministic and Measurements are never mutated after reduce().
var sharedCache = runner.NewCache[*Measurement]()

// FlushCache drops every memoized measurement. Tests use it to force
// fresh simulations; long-lived hosts can use it to reclaim memory.
func FlushCache() { sharedCache.Flush() }

// CachedMeasurements returns the number of memoized measurements.
func CachedMeasurements() int { return sharedCache.Len() }

// DefaultCoreCounts is the scalability study's core-count sweep
// (Fig. 12; paper §6). This is the single place the default lives.
var DefaultCoreCounts = []int{4, 8, 16, 32}

// EngineOptions configure an experiment Engine.
type EngineOptions struct {
	// Workers bounds the simulation worker pool (<=0: GOMAXPROCS;
	// 1: fully sequential execution).
	Workers int
	// Progress, when non-nil, receives per-job progress narration.
	Progress io.Writer
	// Store, when non-nil, is the persistent measurement tier behind
	// the in-memory cache: memory misses read through to it, and fresh
	// simulations are written to it, so warm configurations
	// survive process restarts and are shared across concurrent runs.
	Store *MeasurementStore
	// Metrics, when non-nil, receives the engine's session counters
	// (under the "engine" scope) and every simulation's machine
	// counters (under "machine"). Nil disables both at zero cost.
	Metrics *metrics.Registry
}

// Engine runs experiments by decomposing them into flat batches of
// simulation jobs and executing them on a bounded worker pool with the
// process-wide measurement cache (see internal/experiments/runner).
// Results merge positionally, so every table an Engine renders is
// byte-identical to sequential output regardless of scheduling.
type Engine struct {
	sess *runner.Session[*Measurement]
}

// NewEngine builds an engine over the shared measurement cache.
func NewEngine(o EngineOptions) *Engine {
	exec := func(ctx context.Context, s runner.Spec) (*Measurement, error) {
		return execSpec(ctx, s, o.Metrics)
	}
	opts := runner.Options[*Measurement]{
		Workers:  o.Workers,
		Narrator: trace.NewNarrator(o.Progress),
		Metrics:  o.Metrics.Scope("engine"),
	}
	if o.Store != nil {
		// Assign only when non-nil: a typed nil inside the interface
		// would defeat the session's tier check.
		opts.Tier = o.Store
	}
	return &Engine{sess: runner.NewSession(sharedCache, exec, opts)}
}

// Stats returns the engine's cumulative job accounting (submitted,
// cache hits, simulated) across everything it has run.
func (e *Engine) Stats() runner.Stats { return e.sess.Stats() }

// RunSpecs executes a batch of simulation jobs and returns the
// measurements positionally. Specs are canonicalized first so
// equivalent jobs share cache entries regardless of how callers filled
// the unused sizing field.
func (e *Engine) RunSpecs(ctx context.Context, specs []runner.Spec) ([]*Measurement, error) {
	canon := make([]runner.Spec, len(specs))
	for i, s := range specs {
		canon[i] = canonSpec(s)
	}
	return e.sess.Run(ctx, canon)
}

// canonSpec zeroes the sizing field the group ignores (ustm runs are
// sized by Horizon, cilk/stamp by Scale), so equal jobs get equal keys.
func canonSpec(s runner.Spec) runner.Spec {
	if s.Group == "ustm" {
		s.Scale = 0
	} else {
		s.Horizon = 0
	}
	return s
}

// execSpec dispatches one simulation job to its workload group. The
// registry (which may be nil) receives the run's machine counters;
// sharing one registry across concurrent jobs is safe and
// scheduling-independent because counter updates commute.
func execSpec(ctx context.Context, s runner.Spec, reg *metrics.Registry) (*Measurement, error) {
	switch s.Group {
	case "cilk":
		p, ok := cilk.AppByName(s.App)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown CilkApps application %q", s.App)
		}
		m, _, err := runCilk(ctx, p, s.Design, s.Cores, Scale(s.Scale), runObs{metrics: reg})
		return m, err
	case "ustm":
		p, ok := stm.USTMByName(s.App)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown ustm benchmark %q", s.App)
		}
		m, _, err := runUSTM(ctx, p, s.Design, s.Cores, s.Horizon, runObs{metrics: reg})
		return m, err
	case "stamp":
		p, ok := stamp.ByName(s.App)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown STAMP application %q", s.App)
		}
		m, _, err := runSTAMP(ctx, p, s.Design, s.Cores, Scale(s.Scale), runObs{metrics: reg})
		return m, err
	}
	return nil, fmt.Errorf("experiments: unknown workload group %q (valid: cilk, ustm, stamp)", s.Group)
}

// Spec builders: the app×design job block of one workload group, apps
// outer and designs inner — the order every figure's rows follow.

func cilkSpecs(ncores int, scale Scale, designs []fence.Design) []runner.Spec {
	specs := make([]runner.Spec, 0, len(cilk.Apps)*len(designs))
	for _, p := range cilk.Apps {
		for _, d := range designs {
			specs = append(specs, runner.Spec{
				Group: "cilk", App: p.Name, Design: d, Cores: ncores, Scale: float64(scale),
			})
		}
	}
	return specs
}

func ustmSpecs(ncores int, horizon int64, designs []fence.Design) []runner.Spec {
	specs := make([]runner.Spec, 0, len(stm.USTM)*len(designs))
	for _, p := range stm.USTM {
		for _, d := range designs {
			specs = append(specs, runner.Spec{
				Group: "ustm", App: p.Name, Design: d, Cores: ncores, Horizon: horizon,
			})
		}
	}
	return specs
}

func stampSpecs(ncores int, scale Scale, designs []fence.Design) []runner.Spec {
	specs := make([]runner.Spec, 0, len(stamp.Apps)*len(designs))
	for _, p := range stamp.Apps {
		for _, d := range designs {
			specs = append(specs, runner.Spec{
				Group: "stamp", App: p.Name, Design: d, Cores: ncores, Scale: float64(scale),
			})
		}
	}
	return specs
}

// groupFrom assembles a GroupRun from measurements returned in spec
// order (apps outer, designs inner).
func groupFrom(group string, ms []*Measurement) *GroupRun {
	g := newGroupRun(group)
	for _, m := range ms {
		g.add(m)
	}
	return g
}

// RunCilkGroup measures every CilkApps application under every design.
func (e *Engine) RunCilkGroup(ctx context.Context, ncores int, scale Scale) (*GroupRun, error) {
	ms, err := e.RunSpecs(ctx, cilkSpecs(ncores, scale, Designs))
	if err != nil {
		return nil, err
	}
	return groupFrom("CilkApps", ms), nil
}

// RunUSTMGroup measures every ustm microbenchmark under every design.
func (e *Engine) RunUSTMGroup(ctx context.Context, ncores int, horizon int64) (*GroupRun, error) {
	ms, err := e.RunSpecs(ctx, ustmSpecs(ncores, horizon, Designs))
	if err != nil {
		return nil, err
	}
	return groupFrom("ustm", ms), nil
}

// RunSTAMPGroup measures every STAMP application under every design.
func (e *Engine) RunSTAMPGroup(ctx context.Context, ncores int, scale Scale) (*GroupRun, error) {
	ms, err := e.RunSpecs(ctx, stampSpecs(ncores, scale, Designs))
	if err != nil {
		return nil, err
	}
	return groupFrom("STAMP", ms), nil
}
