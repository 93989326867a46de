package experiments

import (
	"context"
	"io"

	"asymfence/internal/experiments/runner"
	"asymfence/internal/metrics"
	"asymfence/internal/trace"
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
	// Sharing one registry across concurrent jobs is safe and
	// scheduling-independent because counter updates commute.
	exec := func(ctx context.Context, s runner.Spec) (*Measurement, error) {
		m, _, err := run(ctx, s, runObs{metrics: o.Metrics})
		return m, err
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
// measurements positionally. Specs are canonicalized first (see
// canonSpec), so unset fields take their defaults and equivalent jobs
// share cache entries regardless of how callers filled the unused
// sizing field.
func (e *Engine) RunSpecs(ctx context.Context, specs []runner.Spec) ([]*Measurement, error) {
	canon := make([]runner.Spec, len(specs))
	for i, s := range specs {
		canon[i] = canonSpec(s)
	}
	return e.sess.Run(ctx, canon)
}

// canonSpec resolves a spec's unset fields (<=0) to their defaults —
// DefaultCores cores, and scale 1 or a USTMHorizon-cycle run, whichever
// sizes the group — and zeroes the sizing field the group ignores, so
// equal jobs get equal keys.
func canonSpec(s runner.Spec) runner.Spec {
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
func groupSpecs(g *group, ncores int, scale Scale, horizon int64) []runner.Spec {
	specs := make([]runner.Spec, 0, len(g.apps)*len(Designs))
	for _, app := range g.apps {
		for _, d := range Designs {
			specs = append(specs, runner.Spec{
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
	var specs []runner.Spec
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
