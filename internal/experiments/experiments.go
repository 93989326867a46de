// Package experiments reproduces every table and figure of the paper's
// evaluation (§6-7): it builds the workloads, runs them under each fence
// design, and reduces the results to the same rows/series the paper
// reports. DESIGN.md §5 maps each experiment id to its paper artifact.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"asymfence/internal/coherence"
	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/metrics"
	"asymfence/internal/noc"
	"asymfence/internal/sim"
	"asymfence/internal/stats"
	"asymfence/internal/trace"
	"asymfence/internal/workloads/cilk"
	"asymfence/internal/workloads/stamp"
	"asymfence/internal/workloads/stm"
)

// Designs compared in the paper's figures, in the paper's bar order
// (left to right in Figs. 8-11 the bars are Wee, W+, WS+, S+; we report
// S+, WS+, W+, Wee). SW+ performs like WS+ on these workloads (§6) and is
// covered by dedicated tests instead.
var Designs = []fence.Design{fence.SPlus, fence.WSPlus, fence.WPlus, fence.Wee}

// Measurement is one (application, design) run reduced to the quantities
// the paper plots.
type Measurement struct {
	Group  string
	App    string
	Design fence.Design

	// Cycles is the wall-clock execution time (execution-time runs).
	Cycles int64
	// Commits counts committed transactions (throughput runs).
	Commits uint64
	// Horizon is the fixed run length of a throughput run.
	Horizon int64

	// Cycle breakdown fractions over counted core cycles.
	Busy, FenceStall, OtherStall float64

	Agg *stats.Core
	Dir coherence.DirStats
	NoC noc.Stats
}

// Throughput returns committed transactions per million cycles.
func (m *Measurement) Throughput() float64 {
	h := m.Horizon
	if h == 0 {
		h = m.Cycles
	}
	return 1e6 * float64(m.Commits) / float64(h)
}

// CyclesPerTxn returns counted core cycles per committed transaction
// (Fig. 10's unit).
func (m *Measurement) CyclesPerTxn() float64 {
	if m.Commits == 0 {
		return 0
	}
	return float64(m.Agg.TotalCycles()) / float64(m.Commits)
}

func reduce(group, app string, d fence.Design, res *sim.Result) *Measurement {
	agg := res.Agg()
	tot := float64(agg.TotalCycles())
	if tot == 0 {
		tot = 1
	}
	return &Measurement{
		Group: group, App: app, Design: d,
		Cycles:     res.Cycles,
		Commits:    agg.Events[stats.EvCommit],
		Busy:       float64(agg.BusyCycles) / tot,
		FenceStall: float64(agg.FenceStallCycles) / tot,
		OtherStall: float64(agg.OtherStallCycles) / tot,
		Agg:        agg, Dir: res.Dir, NoC: res.NoC,
	}
}

// Scale shrinks run lengths for quick regeneration. 1.0 is the full
// configuration used for EXPERIMENTS.md; tests use smaller values.
type Scale float64

func (s Scale) apply(n int) int {
	v := int(float64(n) * float64(s))
	if v < 4 {
		v = 4
	}
	return v
}

const defaultSeed = 20150314 // the paper's conference date

// runObs bundles the optional observability attachments of one
// simulation run: the event tracer, the interval-sampler period, and
// the metrics registry. The zero value disables all three at zero cost.
type runObs struct {
	tr       *trace.Tracer
	interval int64
	metrics  *metrics.Registry
}

// group is one workload group of the paper's evaluation: its spec name,
// the label its figures print, its applications, and how one of them
// becomes a simulated machine.
type group struct {
	// name is the Spec.Group value: "cilk", "ustm" or "stamp".
	name string
	// label is Measurement.Group and the group's row label in figures.
	label string
	apps  []string
	// throughput marks a group whose runs last Spec.Horizon cycles
	// (sized by Horizon) and report committed transactions — the
	// paper's ustm methodology; the others run to completion (sized by
	// Scale).
	throughput bool
	// build resolves s.App and builds its workload for s; ok is false
	// for an unknown app.
	build func(s Spec, al *mem.Allocator, st *mem.Store, pv *mem.Privacy) (progs []*isa.Program, warm []mem.Region, ok bool)
}

// groups is the one group→apps table: spec resolution, Apps, the figure
// spec builder and every "unknown app" error read it. Its order is the
// figures' group order.
var groups = []group{
	{
		name: "cilk", label: "CilkApps", apps: names(cilk.Apps, func(p cilk.Profile) string { return p.Name }),
		build: func(s Spec, al *mem.Allocator, st *mem.Store, pv *mem.Privacy) ([]*isa.Program, []mem.Region, bool) {
			p, ok := cilk.AppByName(s.App)
			if !ok {
				return nil, nil, false
			}
			p.TasksPerWorker = Scale(s.Scale).apply(p.TasksPerWorker)
			wl := cilk.Build(p, s.Cores, cilk.AssignmentFor(s.Design), defaultSeed, al, st, pv)
			return wl.Progs, wl.WarmRegions, true
		},
	},
	{
		name: "ustm", label: "ustm", apps: names(stm.USTM, func(p stm.Profile) string { return p.Name }),
		throughput: true,
		build: func(s Spec, al *mem.Allocator, st *mem.Store, pv *mem.Privacy) ([]*isa.Program, []mem.Region, bool) {
			p, ok := stm.USTMByName(s.App)
			if !ok {
				return nil, nil, false
			}
			p.Iterations = 0 // run forever; the horizon stops us
			wl := stm.Build(p, s.Cores, stm.AssignmentFor(s.Design), defaultSeed, al, st, pv)
			return wl.Progs, wl.WarmRegions, true
		},
	},
	{
		name: "stamp", label: "STAMP", apps: names(stamp.Apps, func(p stm.Profile) string { return p.Name }),
		build: func(s Spec, al *mem.Allocator, st *mem.Store, pv *mem.Privacy) ([]*isa.Program, []mem.Region, bool) {
			p, ok := stamp.ByName(s.App)
			if !ok {
				return nil, nil, false
			}
			p.Iterations = Scale(s.Scale).apply(p.Iterations)
			wl := stm.Build(p, s.Cores, stm.AssignmentFor(s.Design), defaultSeed, al, st, pv)
			return wl.Progs, wl.WarmRegions, true
		},
	},
}

func names[P any](ps []P, name func(P) string) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = name(p)
	}
	return out
}

// lookupGroup returns the table entry for a spec group name.
func lookupGroup(name string) (*group, error) {
	for i := range groups {
		if groups[i].name == name {
			return &groups[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown workload group %q (valid: %s)",
		name, strings.Join(Groups, ", "))
}

// Groups lists the workload groups a spec may name, in display order.
var Groups = names(groups, func(g group) string { return g.name })

// Apps returns the application names of one workload group ("cilk",
// "ustm" or "stamp") in the figures' row order, or nil for an unknown
// group.
func Apps(group string) []string {
	g, err := lookupGroup(group)
	if err != nil {
		return nil
	}
	return append([]string(nil), g.apps...)
}

// run executes one simulation job, the only way a workload reaches the
// simulator: it resolves the spec's app, builds its workload, runs the
// machine with obs attached and reduces the result.
func run(ctx context.Context, s Spec, obs runObs) (*Measurement, *sim.Result, error) {
	g, err := lookupGroup(s.Group)
	if err != nil {
		return nil, nil, err
	}
	cfg := sim.Config{
		NCores: s.Cores, Design: s.Design, MaxCycles: 200_000_000,
		Trace: obs.tr, SampleInterval: obs.interval, Metrics: obs.metrics,
	}
	if g.throughput {
		cfg.MaxCycles = s.Horizon + 1
	}
	// Reject a bad machine shape before the workload builders see it.
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	al, st := mem.NewAllocator(0x1000), mem.NewStore()
	cfg.Privacy = mem.NewPrivacy()
	progs, warm, ok := g.build(s, al, st, cfg.Privacy)
	if !ok {
		apps := Apps(s.Group)
		sort.Strings(apps)
		return nil, nil, fmt.Errorf("experiments: unknown %s app %q (valid: %s)",
			s.Group, s.App, strings.Join(apps, ", "))
	}
	cfg.WarmRegions = warm
	m, err := sim.New(cfg, progs, st)
	if err != nil {
		return nil, nil, err
	}
	var res *sim.Result
	if g.throughput {
		res, err = m.RunForCtx(ctx, s.Horizon)
	} else {
		res, err = m.RunCtx(ctx)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s under %v: %w", s.Group, s.App, s.Design, err)
	}
	meas := reduce(g.label, s.App, s.Design, res)
	if g.throughput {
		meas.Horizon = s.Horizon
	}
	return meas, res, nil
}

// GroupRun holds every (app, design) measurement of one workload group.
type GroupRun struct {
	Group string
	Apps  []string
	// ByApp[app][design] is the measurement.
	ByApp map[string]map[fence.Design]*Measurement
}

func newGroupRun(group string) *GroupRun {
	return &GroupRun{Group: group, ByApp: map[string]map[fence.Design]*Measurement{}}
}

func (g *GroupRun) add(m *Measurement) {
	if g.ByApp[m.App] == nil {
		g.ByApp[m.App] = map[fence.Design]*Measurement{}
		g.Apps = append(g.Apps, m.App)
	}
	g.ByApp[m.App][m.Design] = m
}

// MeanExecRatio returns the geometric-mean execution-time ratio of design
// d over S+ across the group's applications (execution-time groups).
func (g *GroupRun) MeanExecRatio(d fence.Design) float64 {
	prod, n := 1.0, 0
	for _, app := range g.Apps {
		base := g.ByApp[app][fence.SPlus]
		m := g.ByApp[app][d]
		if base == nil || m == nil || base.Cycles == 0 {
			continue
		}
		prod *= float64(m.Cycles) / float64(base.Cycles)
		n++
	}
	if n == 0 {
		return 1
	}
	return math.Pow(prod, 1/float64(n))
}

// MeanThroughputRatio returns the geometric-mean throughput ratio of d
// over S+ (throughput groups; higher is better).
func (g *GroupRun) MeanThroughputRatio(d fence.Design) float64 {
	prod, n := 1.0, 0
	for _, app := range g.Apps {
		base := g.ByApp[app][fence.SPlus]
		m := g.ByApp[app][d]
		if base == nil || m == nil || base.Throughput() == 0 {
			continue
		}
		prod *= m.Throughput() / base.Throughput()
		n++
	}
	if n == 0 {
		return 1
	}
	return math.Pow(prod, 1/float64(n))
}

// MeanFenceStall returns the arithmetic-mean fence-stall fraction of the
// group under design d.
func (g *GroupRun) MeanFenceStall(d fence.Design) float64 {
	sum, n := 0.0, 0
	for _, app := range g.Apps {
		if m := g.ByApp[app][d]; m != nil {
			sum += m.FenceStall
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
