package asymfence

import (
	"context"
	"fmt"

	"asymfence/internal/experiments"
)

// ExperimentTable is a rendered experiment result.
type ExperimentTable = experiments.Table

// Options tune the experiment harness. The embedded RunConfig carries
// the execution environment shared with RunBatch (worker pool,
// progress, accounting, metrics, persistent store); the fields here
// size the experiments themselves. Every field uses "unset means
// default" semantics: numeric fields <=0 and an empty CoreCounts
// select the default, resolved where each job is canonicalized.
type Options struct {
	RunConfig

	// Cores is the simulated core count (<=0: the paper's 8, Table 2).
	Cores int
	// Scale shrinks execution-time runs (<=0: 1.0 = full size; e.g.
	// 0.25 for CI).
	Scale float64
	// Horizon is the throughput-run length in cycles (<=0: 60k).
	Horizon int64
	// CoreCounts is the scalability study's sweep (empty: 4, 8, 16, 32).
	CoreCounts []int
}

// Experiment is one regenerable artifact of the paper's evaluation: a
// typed registry entry carrying its id, a one-line description, the
// paper artifact it reproduces, and the code that runs it. Obtain
// entries from Experiments or LookupExperiment.
type Experiment struct {
	// ID is the CLI/LookupExperiment identifier ("fig8", ..., "all").
	ID string
	// Description is a one-line summary of the regenerated artifact.
	Description string
	// PaperRef names the paper artifact (figure/table/section) this
	// experiment reproduces; DESIGN.md §5 maps each to its reference
	// result.
	PaperRef string

	run func(ctx context.Context, eng *experiments.Engine, o Options) ([]*ExperimentTable, error)
}

// Run regenerates the artifact and returns its table(s). Simulation
// jobs execute on a bounded worker pool (RunConfig.Jobs) against the
// process-wide measurement cache, backed by the persistent store when
// RunConfig.Store is set; results merge deterministically, so
// output is byte-identical at any parallelism and whether a job
// simulated or loaded from either tier. Cancel ctx to abort: the error
// then wraps context.Canceled.
func (e Experiment) Run(ctx context.Context, opts Options) ([]*ExperimentTable, error) {
	if e.run == nil {
		return nil, fmt.Errorf("asymfence: zero Experiment value (obtain entries from Experiments or LookupExperiment)")
	}
	eng := experiments.NewEngine(opts.RunConfig)
	tables, err := e.run(ctx, eng, opts)
	eng.Report()
	if err != nil {
		return nil, fmt.Errorf("asymfence: %s: %w", e.ID, err)
	}
	return tables, nil
}

// one adapts a single-table result to the registry's return shape.
func one(t *ExperimentTable, err error) ([]*ExperimentTable, error) {
	if err != nil {
		return nil, err
	}
	return []*ExperimentTable{t}, nil
}

// registry is the single source of truth for experiment discovery and
// dispatch: ExperimentIDs, Experiments, LookupExperiment and the CLI's
// -list output all derive from it. "all" is a first-class
// entry so listing and dispatch cannot drift. (Filled by init: the
// "all" entry iterates the registry, which Go's initializer-cycle
// check would otherwise reject.)
var registry []Experiment

func init() {
	registry = []Experiment{
		{
			ID:          "fig8",
			Description: "CilkApps execution time under S+, WS+, W+ and Wee (Fig. 8)",
			PaperRef:    "Fig. 8",
			run: func(ctx context.Context, eng *experiments.Engine, o Options) ([]*ExperimentTable, error) {
				_, t, err := eng.Fig8(ctx, o.Cores, experiments.Scale(o.Scale))
				return one(t, err)
			},
		},
		{
			ID:          "fig9",
			Description: "ustm transactional throughput per design (Fig. 9)",
			PaperRef:    "Fig. 9",
			run: func(ctx context.Context, eng *experiments.Engine, o Options) ([]*ExperimentTable, error) {
				_, t, err := eng.Fig9(ctx, o.Cores, o.Horizon)
				return one(t, err)
			},
		},
		{
			ID:          "fig10",
			Description: "ustm cycles per committed transaction, cycle breakdown (Fig. 10)",
			PaperRef:    "Fig. 10",
			run: func(ctx context.Context, eng *experiments.Engine, o Options) ([]*ExperimentTable, error) {
				_, t, err := eng.Fig10(ctx, o.Cores, o.Horizon)
				return one(t, err)
			},
		},
		{
			ID:          "fig11",
			Description: "STAMP execution time per design (Fig. 11)",
			PaperRef:    "Fig. 11",
			run: func(ctx context.Context, eng *experiments.Engine, o Options) ([]*ExperimentTable, error) {
				_, t, err := eng.Fig11(ctx, o.Cores, experiments.Scale(o.Scale))
				return one(t, err)
			},
		},
		{
			ID:          "fig12",
			Description: "scalability of the mean speedups across core counts (Fig. 12)",
			PaperRef:    "Fig. 12",
			run: func(ctx context.Context, eng *experiments.Engine, o Options) ([]*ExperimentTable, error) {
				_, t, err := eng.Fig12(ctx, experiments.Scale(o.Scale), o.Horizon, o.CoreCounts)
				return one(t, err)
			},
		},
		{
			ID:          "table4",
			Description: "fence/bounce/traffic characterization per group (Table 4)",
			PaperRef:    "Table 4",
			run: func(ctx context.Context, eng *experiments.Engine, o Options) ([]*ExperimentTable, error) {
				t, err := eng.Table4(ctx, o.Cores, experiments.Scale(o.Scale), o.Horizon)
				return one(t, err)
			},
		},
		{
			ID:          "headline",
			Description: "the paper's headline mean speedup comparison (abstract)",
			PaperRef:    "§1/§9 abstract",
			run: func(ctx context.Context, eng *experiments.Engine, o Options) ([]*ExperimentTable, error) {
				_, t, err := eng.Headline(ctx, o.Cores, experiments.Scale(o.Scale), o.Horizon)
				return one(t, err)
			},
		},
		{
			ID:          "all",
			Description: "every artifact above, in paper order (shared cache: repeats are free)",
			PaperRef:    "§6-7",
			run:         runAll,
		},
	}
	ExperimentIDs = make([]string, len(registry))
	for i, e := range registry {
		ExperimentIDs[i] = e.ID
	}
}

// runAll runs every other registry entry on one shared engine, so the
// overlapping simulations across artifacts resolve as cache hits.
// (A named function breaks the registry's self-referential
// initialization cycle.)
func runAll(ctx context.Context, eng *experiments.Engine, o Options) ([]*ExperimentTable, error) {
	var out []*ExperimentTable
	for _, e := range registry {
		if e.ID == "all" {
			continue
		}
		ts, err := e.run(ctx, eng, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, ts...)
	}
	return out, nil
}

// Experiments returns the experiment registry in paper order ("all"
// last). The returned slice is a copy.
func Experiments() []Experiment {
	return append([]Experiment(nil), registry...)
}

// ExperimentIDs lists every registry id, in paper order, "all" last.
// It derives from the registry (filled alongside it in init), as does
// the CLI's -list output.
var ExperimentIDs []string

// LookupExperiment returns the registry entry for id.
func LookupExperiment(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// FlushSimCache drops every memoized measurement from the process-wide
// simulation cache. Long-lived hosts can call it to reclaim memory;
// tests use it to force fresh simulations.
func FlushSimCache() { experiments.FlushCache() }
