// Package sim wires cores, directory modules, the mesh and the functional
// store into a whole simulated multicore and drives the cycle loop.
//
// Stepping is deterministic. Each cycle, the packets that have arrived
// are delivered node by node, each node's in (arrival, injection) order,
// to the node's directory or core according to the message type; then
// directory timers fire, then cores step, each in index order. Identical
// configurations and programs produce bit-identical runs; a test asserts
// this.
//
// A cycle visits only the components with work due. The mesh keeps each
// node's next arrival cycle, and the machine keeps each bank's next timer
// and each core's next step cycle (its WakeAt, or the current cycle once
// a message arrives for it), refreshing an entry when it delivers to,
// fires or steps that component. A core the loop does not step is
// charged for those cycles in bulk (cpu.Core.Sync) before anything reads
// its counters: when it is next stepped, at a sampling boundary, when
// Core hands it out and when a Result is built. When no component is due
// in the next cycle either, fastForward moves the clock to just before
// the earliest cycle one is. Config.PureStepping visits every component
// every cycle instead; results are identical either way.
package sim

import (
	"context"
	"errors"
	"fmt"

	"asymfence/internal/check"
	"asymfence/internal/coherence"
	"asymfence/internal/cpu"
	"asymfence/internal/faults"
	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/metrics"
	"asymfence/internal/noc"
	"asymfence/internal/stats"
	"asymfence/internal/trace"
)

// l2BytesPerBank is the shared-L2 bank capacity (Table 2).
const l2BytesPerBank = 128 * 1024

// Config describes a whole machine (Table 2 defaults apply to zero
// fields).
type Config struct {
	NCores int
	Design fence.Design

	// BSCapacity is each core's Bypass Set size (default
	// fence.DefaultBSCapacity, Table 2's 32).
	BSCapacity int

	// WPlusTimeout is the W+ deadlock-suspicion timeout in cycles
	// (default cpu.DefaultWPlusTimeout).
	WPlusTimeout int64

	// MaxCycles bounds Run (default 10M).
	MaxCycles int64

	// WatchdogCycles: if no instruction retires anywhere for this long,
	// Run reports a deadlock (default 100k). The W+ recovery timeout is
	// far below this, so only genuine deadlocks (e.g. naive all-weak
	// groups) trip it.
	WatchdogCycles int64

	// Privacy feeds WeeFence's Private Access Filtering (may be nil).
	Privacy *mem.Privacy

	// WarmRegions are preloaded into the shared L2 before cycle 0,
	// modeling working sets that are warm mid-run (first-touch cold
	// misses would otherwise dominate short simulations).
	WarmRegions []mem.Region

	// Trace receives every component's events (see internal/trace). It
	// is the machine's one event buffer, and failure reports
	// (DeadlockError, ViolationError) carry its Tail. Nil, the default,
	// gives the machine a flight recorder instead: a tracer of every
	// class bounded at trace.RecorderDepth events, allocated by New.
	Trace *trace.Tracer

	// Metrics, when non-nil, receives the run's machine counters under
	// the "machine" scope (see internal/metrics and OBSERVABILITY.md).
	// Counter updates commute, so concurrent runs may share a registry
	// and still produce scheduling-independent totals. Nil (the
	// default) disables metrics at zero cost.
	Metrics *metrics.Registry

	// Checker is the runtime invariant oracle (nil, the default,
	// disables checking at zero cost; see internal/check). A violation
	// ends the run with the oracle's *check.ViolationError.
	Checker *check.Oracle

	// Faults injects deterministic timing faults into the NoC, the
	// directories and the cores' write buffers (nil, the default,
	// injects nothing; see internal/faults).
	Faults *faults.Injector

	// SampleInterval, when positive, snapshots per-core cycle-breakdown
	// deltas every that many cycles into Result.Intervals.
	SampleInterval int64

	// PureStepping disables the quiescence-aware fast paths (per-core
	// idle memoization and whole-machine cycle skipping), evaluating
	// every component every cycle. Results are bit-identical either way —
	// TestQuiescenceEquivalence asserts it — so this exists only for that
	// cross-check and for debugging the fast paths themselves.
	PureStepping bool
}

func (c *Config) applyDefaults() {
	if c.NCores == 0 {
		c.NCores = 8
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 10_000_000
	}
	if c.WatchdogCycles == 0 {
		c.WatchdogCycles = 100_000
	}
}

// ErrDeadlock is returned by Run when the watchdog fires.
var ErrDeadlock = errors.New("sim: machine deadlocked (no retirement progress)")

// ErrHorizon is returned by Run when MaxCycles elapses before completion.
var ErrHorizon = errors.New("sim: cycle horizon reached before completion")

// Machine is one simulated multicore.
type Machine struct {
	cfg     Config
	mesh    *coherence.Fabric
	store   *mem.Store
	dirs    []*coherence.Directory
	cores   []*cpu.Core
	cycle   int64
	tr      *trace.Tracer
	sampler *trace.Sampler
	// coreStats caches the stat blocks for the sampler's hot path.
	coreStats []*stats.Core
	// delivBuf is the reused packet-delivery scratch buffer.
	delivBuf []coherence.Packet
	// timerAt[i] is bank i's next timer cycle (Directory.NextTimer) and
	// coreAt[i] the next cycle core i is due to step, refreshed whenever
	// the loop delivers to, fires or steps that component. A bank arms
	// timers only from Handle and Step, always at least a cycle ahead.
	timerAt, coreAt []int64
	// retired counts the instructions the cores retired, summed as the
	// loop steps them (the watchdog's progress measure).
	retired uint64
	// skipped counts cycles elided by fastForward (diagnostics/tests).
	skipped int64
	// chk is the attached invariant oracle (nil when checking is off).
	chk *check.Oracle
	// mx holds the machine's metric handles (nil when metrics are off).
	mx *simMetrics
}

// New builds a machine running programs[i] on core i. len(programs) must
// equal cfg.NCores. The store carries pre-initialized workload data.
func New(cfg Config, programs []*isa.Program, store *mem.Store) (*Machine, error) {
	cfg.applyDefaults()
	if len(programs) != cfg.NCores {
		return nil, fmt.Errorf("sim: %d programs for %d cores", len(programs), cfg.NCores)
	}
	tr := cfg.Trace
	if tr == nil {
		tr = trace.New(trace.Options{MaxEvents: trace.RecorderDepth})
	}
	w, h := noc.MeshFor(cfg.NCores)
	mesh := noc.NewMesh[coherence.Msg](w, h)
	mesh.SetTracer(tr)
	if cfg.Faults != nil {
		mesh.SetDelayFn(cfg.Faults.NoCDelay)
	}
	grt := coherence.NewGRT()
	m := &Machine{cfg: cfg, mesh: mesh, store: store, tr: tr,
		sampler: trace.NewSampler(cfg.SampleInterval, cfg.NCores),
		chk:     cfg.Checker, mx: newSimMetrics(cfg.Metrics),
		timerAt: make([]int64, cfg.NCores), coreAt: make([]int64, cfg.NCores)}
	for i := 0; i < cfg.NCores; i++ {
		d := coherence.NewDirectory(i, cfg.NCores, mesh, l2BytesPerBank, grt)
		d.SetTracer(tr)
		if cfg.Checker != nil {
			d.SetChecker(cfg.Checker)
		}
		if cfg.Faults != nil {
			d.SetLatencyFault(cfg.Faults.DirDelay)
		}
		m.dirs = append(m.dirs, d)
		m.timerAt[i] = d.NextTimer()
		core := cpu.New(cpu.Config{
			ID: i, NCores: cfg.NCores, Design: cfg.Design,
			BSCapacity: cfg.BSCapacity, WPlusTimeout: cfg.WPlusTimeout,
			Privacy: cfg.Privacy, Tracer: tr, WBOcc: m.mx.wbHist(),
			Checker: cfg.Checker, Faults: cfg.Faults, NoIdleSleep: cfg.PureStepping,
		}, programs[i], mesh, store)
		m.cores = append(m.cores, core)
		m.coreStats = append(m.coreStats, core.Stats())
	}
	if cfg.Checker != nil {
		cfg.Checker.Bind(oracleView{m}, cfg.NCores, cfg.Design)
		// Seed the oracle's committed-memory mirror with the workload's
		// pre-initialized state so the first loads validate exactly.
		store.ForEach(cfg.Checker.SeedShadow)
	}
	for _, r := range cfg.WarmRegions {
		for l := mem.LineOf(r.Base); l < mem.Line(r.Base+r.Size); l += mem.LineSize {
			m.dirs[mem.HomeBank(l, cfg.NCores)].Preload(l)
		}
	}
	return m, nil
}

// Cycle returns the current cycle.
func (m *Machine) Cycle() int64 { return m.cycle }

// Store returns the functional memory (for inspecting workload results).
func (m *Machine) Store() *mem.Store { return m.store }

// Core returns core i (test hook), its counters charged through the
// current cycle.
func (m *Machine) Core(i int) *cpu.Core {
	m.cores[i].Sync(m.cycle)
	return m.cores[i]
}

// Directory returns directory module i (test hook).
func (m *Machine) Directory(i int) *coherence.Directory { return m.dirs[i] }

// oracleView adapts the machine to the invariant oracle's read-only
// coherence view (check.View), consulted during end-of-cycle sweeps.
type oracleView struct{ m *Machine }

func (v oracleView) L1Holds(core int, l mem.Line) (held, exclusive bool) {
	return v.m.cores[core].L1Holds(l)
}

func (v oracleView) DirLine(l mem.Line) (sharers uint64, owner int) {
	return v.m.dirs[mem.HomeBank(l, v.m.cfg.NCores)].SharersOf(l)
}

// violation returns the oracle's latched violation, or nil. The check is
// one nil test per cycle when no oracle is attached.
func (m *Machine) violation() error {
	if m.chk == nil {
		return nil
	}
	return m.chk.Err()
}

// Step advances the whole machine one cycle, visiting only the nodes
// with a packet due, the banks with a timer due and the cores due to
// step (every one of them under PureStepping).
func (m *Machine) Step() {
	m.cycle++
	now := m.cycle
	all := m.cfg.PureStepping
	for n, t := range m.mesh.Arrivals() {
		if t > now && !all {
			continue
		}
		// Handlers may send new packets mid-delivery, but every send has
		// latency >= 1, so the pop-then-handle order per node is stable,
		// no node this loop has yet to visit becomes due, and the scratch
		// buffer is not mutated under iteration.
		m.delivBuf = m.mesh.DeliverInto(now, n, m.delivBuf[:0])
		for _, pkt := range m.delivBuf {
			if coherence.ToDirectory(pkt.Payload.Type) {
				m.dirs[n].Handle(now, pkt.Payload)
			} else {
				m.cores[n].HandleMsg(now, pkt.Payload)
				m.coreAt[n] = now
			}
		}
		m.timerAt[n] = m.dirs[n].NextTimer()
	}
	for n, d := range m.dirs {
		if m.timerAt[n] > now && !all {
			continue
		}
		d.Step(now)
		m.timerAt[n] = d.NextTimer()
	}
	for n, c := range m.cores {
		if m.coreAt[n] > now && !all {
			continue
		}
		st := m.coreStats[n]
		r := st.RetiredInstrs
		c.Step(now)
		m.retired += st.RetiredInstrs - r
		m.coreAt[n] = c.WakeAt(now)
	}
	if m.chk != nil {
		m.chk.EndCycle(now)
	}
	if m.sampler.Due(now) {
		for i, st := range m.coreStats {
			m.cores[i].Sync(now)
			m.sampler.Record(now, i, st)
		}
	}
}

// Finished reports whether every core has halted and the fabric drained.
func (m *Machine) Finished() bool {
	for _, c := range m.cores {
		if !c.Finished() || c.Pending() {
			return false
		}
	}
	return !m.mesh.Pending()
}

// Result summarizes one run.
type Result struct {
	Cycles   int64
	Finished bool
	Cores    []*stats.Core
	NoC      noc.Stats
	Dir      coherence.DirStats

	// Intervals is the per-core cycle-breakdown time series when
	// Config.SampleInterval was set (nil otherwise).
	Intervals []trace.Sample
}

// Agg returns the per-core stats merged into one block.
func (r *Result) Agg() *stats.Core {
	agg := stats.NewCore()
	for _, c := range r.Cores {
		agg.Add(c)
	}
	return agg
}

func (m *Machine) result(finished bool) *Result {
	r := &Result{Cycles: m.cycle, Finished: finished}
	for _, c := range m.cores {
		c.Sync(m.cycle)
		r.Cores = append(r.Cores, c.Stats())
	}
	r.NoC = m.mesh.Stats()
	for _, d := range m.dirs {
		r.Dir.Add(&d.Stats)
	}
	m.sampler.Flush(m.cycle, m.coreStats)
	r.Intervals = m.sampler.Samples()
	m.mx.export(m, r)
	return r
}

// withTail attaches the machine's event tail to a violation error that
// does not carry one yet.
func (m *Machine) withTail(err error) error {
	var v *check.ViolationError
	if errors.As(err, &v) && v.Tail == nil {
		v.Tail = m.tr.Tail()
	}
	return err
}

// cancelPollMask sets how often the cycle loop polls for cancellation:
// every cancelPollMask+1 cycles. Polling is skipped entirely for
// contexts that can never be canceled (Done() == nil), so Run and
// RunFor cost nothing extra.
const cancelPollMask = 1023

// canceled wraps the context's error with the interruption cycle so
// errors.Is(err, context.Canceled) holds for callers up the stack.
func (m *Machine) canceled(ctx context.Context) error {
	return fmt.Errorf("sim: run canceled at cycle %d: %w", m.cycle, ctx.Err())
}

// Run executes until every core halts, the horizon is reached, or the
// watchdog detects a deadlock.
func (m *Machine) Run() (*Result, error) { return m.RunCtx(context.Background()) }

// RunCtx is Run with cooperative cancellation: the cycle loop polls ctx
// every few thousand cycles and, once it is canceled, returns the
// partial result with an error wrapping context.Canceled.
func (m *Machine) RunCtx(ctx context.Context) (*Result, error) {
	return m.run(ctx, m.cfg.MaxCycles, true)
}

// run is the cycle loop of Run and RunFor: it steps the machine until
// cycle end, returning early on an oracle violation or cancellation.
// toCompletion makes it Run's loop: it also returns once the machine
// finishes, runs the watchdog, and reports reaching end as ErrHorizon.
func (m *Machine) run(ctx context.Context, end int64, toCompletion bool) (*Result, error) {
	if err := m.cfg.Validate(); err != nil {
		return nil, err
	}
	done := ctx.Done()
	lastProgress := m.cycle
	lastRetired := m.retired
	for m.cycle < end {
		m.Step()
		if err := m.violation(); err != nil {
			return m.result(false), m.withTail(err)
		}
		if toCompletion && m.Finished() {
			return m.result(true), nil
		}
		if done != nil && m.cycle&cancelPollMask == 0 {
			select {
			case <-done:
				return m.result(false), m.canceled(ctx)
			default:
			}
		}
		limit := end
		if toCompletion {
			if m.retired != lastRetired {
				lastRetired = m.retired
				lastProgress = m.cycle
			} else if m.cycle-lastProgress > m.cfg.WatchdogCycles {
				return m.result(false), m.deadlockError()
			}
			// The watchdog must still observe the cycle at which it would
			// have fired, so the jump may not overshoot its deadline.
			limit = min(limit, lastProgress+m.cfg.WatchdogCycles+1)
		}
		if !m.cfg.PureStepping {
			m.fastForward(limit)
		}
	}
	if toCompletion {
		return m.result(false), ErrHorizon
	}
	return m.result(m.Finished()), nil
}

// fastForward advances the clock past cycles in which provably nothing
// happens: every core is asleep or finished, no packet arrives, and no
// directory timer fires. The jump is to the earliest cycle any of them
// is due, capped at the next sampling boundary and at limit (watchdog
// deadline / horizon). The cores are charged for the skipped cycles
// like for any other cycle they were not stepped, so runs are
// bit-identical with and without skipping (TestQuiescenceEquivalence).
func (m *Machine) fastForward(limit int64) {
	now := m.cycle
	if now+2 > limit {
		return
	}
	next := min(m.sampler.Next(now), limit)
	for _, w := range m.coreAt {
		if w <= now+1 {
			return // an awake core steps every cycle
		}
		next = min(next, w)
	}
	next = min(next, m.mesh.NextArrival())
	for _, t := range m.timerAt {
		next = min(next, t)
	}
	// Stop one cycle short: the event cycle itself must be stepped.
	skip := next - now - 1
	if skip <= 0 {
		return
	}
	m.cycle += skip
	m.skipped += skip
}

// SkippedCycles returns how many cycles the quiescence-aware loop has
// elided via fastForward instead of stepping. It is always 0 under
// Config.PureStepping; tests use it to prove a fast run actually
// exercised the skip path.
func (m *Machine) SkippedCycles() int64 { return m.skipped }

// RunFor executes exactly n cycles (throughput experiments run to a fixed
// horizon and report committed transactions).
func (m *Machine) RunFor(n int64) *Result {
	r, _ := m.RunForCtx(context.Background(), n)
	return r
}

// RunForCtx is RunFor with cooperative cancellation; see RunCtx.
func (m *Machine) RunForCtx(ctx context.Context, n int64) (*Result, error) {
	return m.run(ctx, m.cycle+n, false)
}
