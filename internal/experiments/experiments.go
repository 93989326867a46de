// Package experiments reproduces every table and figure of the paper's
// evaluation (§6-7): it builds the workloads, runs them under each fence
// design, and reduces the results to the same rows/series the paper
// reports. DESIGN.md §5 maps each experiment id to its paper artifact.
package experiments

import (
	"context"
	"fmt"
	"math"

	"asymfence/internal/coherence"
	"asymfence/internal/fence"
	"asymfence/internal/mem"
	"asymfence/internal/metrics"
	"asymfence/internal/noc"
	"asymfence/internal/sim"
	"asymfence/internal/stats"
	"asymfence/internal/trace"
	"asymfence/internal/workloads/cilk"
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

// RunCilk executes one CilkApps application to completion.
func RunCilk(p cilk.Profile, d fence.Design, ncores int, scale Scale) (*Measurement, error) {
	meas, _, err := runCilk(context.Background(), p, d, ncores, scale, runObs{})
	return meas, err
}

func runCilk(ctx context.Context, p cilk.Profile, d fence.Design, ncores int, scale Scale, obs runObs) (*Measurement, *sim.Result, error) {
	p.TasksPerWorker = scale.apply(p.TasksPerWorker)
	al := mem.NewAllocator(0x1000)
	store := mem.NewStore()
	privacy := mem.NewPrivacy()
	wl := cilk.Build(p, ncores, cilk.AssignmentFor(d), defaultSeed, al, store, privacy)
	m, err := sim.New(sim.Config{
		NCores: ncores, Design: d, Privacy: privacy,
		WarmRegions: wl.WarmRegions, MaxCycles: 200_000_000,
		Trace: obs.tr, SampleInterval: obs.interval, Metrics: obs.metrics,
	}, wl.Progs, store)
	if err != nil {
		return nil, nil, err
	}
	res, err := m.RunCtx(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("cilk %s under %v: %w", p.Name, d, err)
	}
	return reduce("CilkApps", p.Name, d, res), res, nil
}

// RunUSTM executes one RSTM microbenchmark for a fixed horizon and
// reports transactional throughput (the paper's ustm methodology: "we run
// each microbenchmark for a certain fixed time and measure the number of
// transactions committed").
func RunUSTM(p stm.Profile, d fence.Design, ncores int, horizon int64) (*Measurement, error) {
	meas, _, err := runUSTM(context.Background(), p, d, ncores, horizon, runObs{})
	return meas, err
}

func runUSTM(ctx context.Context, p stm.Profile, d fence.Design, ncores int, horizon int64, obs runObs) (*Measurement, *sim.Result, error) {
	p.Iterations = 0 // run forever; the horizon stops us
	al := mem.NewAllocator(0x1000)
	store := mem.NewStore()
	privacy := mem.NewPrivacy()
	wl := stm.Build(p, ncores, stm.AssignmentFor(d), defaultSeed, al, store, privacy)
	m, err := sim.New(sim.Config{
		NCores: ncores, Design: d, Privacy: privacy,
		WarmRegions: wl.WarmRegions, MaxCycles: horizon + 1,
		Trace: obs.tr, SampleInterval: obs.interval, Metrics: obs.metrics,
	}, wl.Progs, store)
	if err != nil {
		return nil, nil, err
	}
	res, err := m.RunForCtx(ctx, horizon)
	if err != nil {
		return nil, nil, fmt.Errorf("ustm %s under %v: %w", p.Name, d, err)
	}
	meas := reduce("ustm", p.Name, d, res)
	meas.Horizon = horizon
	return meas, res, nil
}

// RunSTAMP executes one STAMP application to completion.
func RunSTAMP(p stm.Profile, d fence.Design, ncores int, scale Scale) (*Measurement, error) {
	meas, _, err := runSTAMP(context.Background(), p, d, ncores, scale, runObs{})
	return meas, err
}

func runSTAMP(ctx context.Context, p stm.Profile, d fence.Design, ncores int, scale Scale, obs runObs) (*Measurement, *sim.Result, error) {
	p.Iterations = scale.apply(p.Iterations)
	al := mem.NewAllocator(0x1000)
	store := mem.NewStore()
	privacy := mem.NewPrivacy()
	wl := stm.Build(p, ncores, stm.AssignmentFor(d), defaultSeed, al, store, privacy)
	m, err := sim.New(sim.Config{
		NCores: ncores, Design: d, Privacy: privacy,
		WarmRegions: wl.WarmRegions, MaxCycles: 200_000_000,
		Trace: obs.tr, SampleInterval: obs.interval, Metrics: obs.metrics,
	}, wl.Progs, store)
	if err != nil {
		return nil, nil, err
	}
	res, err := m.RunCtx(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("stamp %s under %v: %w", p.Name, d, err)
	}
	return reduce("STAMP", p.Name, d, res), res, nil
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

// RunCilkGroup measures every CilkApps application under every design
// (parallel, via a default Engine and the shared measurement cache).
func RunCilkGroup(ncores int, scale Scale) (*GroupRun, error) {
	return NewEngine(EngineOptions{}).RunCilkGroup(context.Background(), ncores, scale)
}

// RunUSTMGroup measures every ustm microbenchmark under every design
// (parallel, via a default Engine and the shared measurement cache).
func RunUSTMGroup(ncores int, horizon int64) (*GroupRun, error) {
	return NewEngine(EngineOptions{}).RunUSTMGroup(context.Background(), ncores, horizon)
}

// RunSTAMPGroup measures every STAMP application under every design
// (parallel, via a default Engine and the shared measurement cache).
func RunSTAMPGroup(ncores int, scale Scale) (*GroupRun, error) {
	return NewEngine(EngineOptions{}).RunSTAMPGroup(context.Background(), ncores, scale)
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
