package sim_test

import (
	"errors"
	"reflect"
	"testing"

	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
)

// quiesceProgs builds a 4-core workload that exercises every idle-sleep
// wake term: cross-core flag handshakes (load-miss sleeps and spin
// loops), write-buffer drains behind fences, Work bursts (head-of-ROB
// ready-time sleeps), and a core that halts early and idles to the end.
func quiesceProgs() []*isa.Program {
	const data, flag, back = 0x1000, 0x1040, 0x1080

	w := isa.NewBuilder("writer")
	w.Li(1, data).Li(2, 1234).St(2, 1, 0)
	w.WFence()
	w.Li(1, flag).Li(2, 1).St(2, 1, 0)
	w.Work(400)
	w.Li(1, back)
	w.Label("spin")
	w.Ld(3, 1, 0).Beq(3, isa.R0, "spin")
	w.SFence()
	w.Halt()

	r := isa.NewBuilder("reader")
	r.Li(1, flag)
	r.Label("spin")
	r.Ld(2, 1, 0).Beq(2, isa.R0, "spin")
	r.Li(1, data).Ld(10, 1, 0)
	r.Work(250)
	r.Li(1, back).Li(2, 1).St(2, 1, 0)
	r.WFence()
	r.Halt()

	worker := isa.NewBuilder("worker")
	worker.Li(1, 0x2000)
	worker.Work(600)
	worker.Ld(2, 1, 0).AddI(2, 2, 1).St(2, 1, 0)
	worker.SFence()
	worker.Halt()

	idle := isa.NewBuilder("idle")
	idle.Work(50).Halt()

	return []*isa.Program{w.MustBuild(), r.MustBuild(), worker.MustBuild(), idle.MustBuild()}
}

// TestQuiescenceEquivalence proves the quiescence-aware cycle loop is an
// invisible optimization: the same workload run with PureStepping (every
// component stepped every cycle) and with idle skipping enabled must
// produce byte-identical results — same final cycle, same digest over
// every counter — for every fence design.
func TestQuiescenceEquivalence(t *testing.T) {
	for _, d := range fence.AllDesigns {
		run := func(pure bool) *sim.Result {
			m, err := sim.New(sim.Config{NCores: 4, Design: d, PureStepping: pure},
				quiesceProgs(), mem.NewStore())
			if err != nil {
				t.Fatalf("%v: New: %v", d, err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("%v (pure=%v): Run: %v", d, pure, err)
			}
			return res
		}
		pure, fast := run(true), run(false)
		if pure.Cycles != fast.Cycles {
			t.Errorf("%v: cycles diverge: pure=%d fast=%d", d, pure.Cycles, fast.Cycles)
		}
		if pd, fd := pure.Digest(), fast.Digest(); pd != fd {
			t.Errorf("%v: digests diverge: pure=%s fast=%s", d, pd, fd)
		}
	}
}

// TestQuiescenceEquivalenceSampled repeats the cross-check with interval
// sampling enabled: fastForward must stop at every sampling boundary so
// each interval row sees the counters as of exactly that cycle.
func TestQuiescenceEquivalenceSampled(t *testing.T) {
	for _, d := range []fence.Design{fence.SPlus, fence.WPlus, fence.Wee} {
		run := func(pure bool) *sim.Result {
			m, err := sim.New(
				sim.Config{NCores: 4, Design: d, PureStepping: pure, SampleInterval: 100},
				quiesceProgs(), mem.NewStore())
			if err != nil {
				t.Fatalf("%v: New: %v", d, err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("%v (pure=%v): Run: %v", d, pure, err)
			}
			return res
		}
		pure, fast := run(true), run(false)
		if pd, fd := pure.Digest(), fast.Digest(); pd != fd {
			t.Errorf("%v: digests diverge: pure=%s fast=%s", d, pd, fd)
		}
		if !reflect.DeepEqual(pure.Intervals, fast.Intervals) {
			t.Errorf("%v: interval time series diverge (%d vs %d rows)",
				d, len(pure.Intervals), len(fast.Intervals))
		}
	}
}

// TestQuiescenceEquivalenceRunFor covers the fixed-horizon loop used by
// throughput experiments: after all cores halt, the machine idle-skips
// straight to the horizon, which must not change any counter.
func TestQuiescenceEquivalenceRunFor(t *testing.T) {
	const horizon = 5000
	run := func(pure bool) *sim.Result {
		m, err := sim.New(
			sim.Config{NCores: 4, Design: fence.WSPlus, PureStepping: pure, SampleInterval: 250},
			quiesceProgs(), mem.NewStore())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return m.RunFor(horizon)
	}
	pure, fast := run(true), run(false)
	if pure.Cycles != horizon || fast.Cycles != horizon {
		t.Fatalf("RunFor did not run to horizon: pure=%d fast=%d", pure.Cycles, fast.Cycles)
	}
	if pd, fd := pure.Digest(), fast.Digest(); pd != fd {
		t.Errorf("digests diverge: pure=%s fast=%s", pd, fd)
	}
	if !reflect.DeepEqual(pure.Intervals, fast.Intervals) {
		t.Errorf("interval time series diverge (%d vs %d rows)",
			len(pure.Intervals), len(fast.Intervals))
	}
}

// TestIdleSkipWakesOnPacketArrival pins down the wake mechanism itself:
// a core asleep on a cold load miss (no local wake time — it is woken
// purely by the grant packet) must observe the grant at exactly the
// cycle a pure-stepping run delivers it, and the run must actually have
// skipped cycles (the memory fetch is hundreds of cycles long).
func TestIdleSkipWakesOnPacketArrival(t *testing.T) {
	prog := func() []*isa.Program {
		b := isa.NewBuilder("coldload")
		b.Li(1, 0x4000)
		b.Ld(2, 1, 0) // cold miss: GetS -> directory -> memory fetch
		b.AddI(3, 2, 7)
		b.Halt()
		return []*isa.Program{b.MustBuild()}
	}
	run := func(pure bool) (*sim.Machine, *sim.Result) {
		st := mem.NewStore()
		st.StoreWord(0x4000, 35)
		m, err := sim.New(sim.Config{NCores: 1, Design: fence.SPlus, PureStepping: pure},
			prog(), st)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("Run (pure=%v): %v", pure, err)
		}
		return m, res
	}
	mp, pure := run(true)
	mf, fast := run(false)
	if got := mf.Core(0).Reg(3); got != 42 {
		t.Fatalf("load value lost across idle skip: r3 = %d, want 42", got)
	}
	if pure.Cycles != fast.Cycles {
		t.Errorf("wake cycle wrong: pure run ends at %d, fast run at %d",
			pure.Cycles, fast.Cycles)
	}
	if pd, fd := pure.Digest(), fast.Digest(); pd != fd {
		t.Errorf("digests diverge: pure=%s fast=%s", pd, fd)
	}
	if mp.SkippedCycles() != 0 {
		t.Errorf("pure run skipped %d cycles, want 0", mp.SkippedCycles())
	}
	if mf.SkippedCycles() < 50 {
		t.Errorf("fast run skipped only %d cycles; the memory fetch latency "+
			"should have been mostly elided", mf.SkippedCycles())
	}
}

// kernelShapeTasks is the tasks per worker of the kernel-shape cases: the
// kernel-quiescent workload's minimum, a few thousand cycles per run.
const kernelShapeTasks = 4

// kernelShapeApps are the kernel-quiescent workload's apps, each with a
// design and a watchdog length that trips on it (a gap in retirement
// near the end of the run for bucket, mid-run for fib).
var kernelShapeApps = []struct {
	app      string
	design   fence.Design
	watchdog int64
}{
	{"bucket", fence.SPlus, 60},
	{"fib", fence.WSPlus, 150},
}

// asleep counts m's cores that are not due to step next cycle.
func asleep(m *sim.Machine) int {
	n := 0
	for i := 0; i < 64; i++ {
		if m.Core(i).WakeAt(m.Cycle()) > m.Cycle()+1 {
			n++
		}
	}
	return n
}

// TestQuiescenceEquivalenceKernelShape cross-checks PureStepping against
// the scheduled loop at the kernel-quiescent workload's shape: 64-core
// cilk:bucket and cilk:fib, seed 1, where most cores sleep most cycles
// and are charged for them in bulk. Each case reads the counters where
// the bulk charge must have landed by then: at sampling boundaries, at
// RunFor horizons, at a watchdog stop, and through Machine.Core between
// Steps.
func TestQuiescenceEquivalenceKernelShape(t *testing.T) {
	for _, k := range kernelShapeApps {
		build := func(cfg sim.Config) *sim.Machine {
			m, _ := cilkMachine(t, k.app, k.design, kernelShapeTasks, cfg)
			return m
		}
		t.Run("sampled/"+k.app, func(t *testing.T) {
			run := func(pure bool) *sim.Result {
				res, err := build(sim.Config{PureStepping: pure, SampleInterval: 500}).Run()
				if err != nil {
					t.Fatalf("pure=%v: %v", pure, err)
				}
				return res
			}
			pure, fast := run(true), run(false)
			if pd, fd := pure.Digest(), fast.Digest(); pd != fd {
				t.Errorf("digests diverge: pure=%s fast=%s", pd, fd)
			}
			if !reflect.DeepEqual(pure.Intervals, fast.Intervals) {
				t.Errorf("interval time series diverge (%d vs %d rows)", len(pure.Intervals), len(fast.Intervals))
			}
		})
		t.Run("runfor/"+k.app, func(t *testing.T) {
			mp, mf := build(sim.Config{PureStepping: true}), build(sim.Config{})
			for _, n := range []int64{1_234, 777, 2_000, 1_501} {
				pure, fast := mp.RunFor(n), mf.RunFor(n)
				if pd, fd := pure.Digest(), fast.Digest(); pd != fd {
					t.Fatalf("at cycle %d: digests diverge: pure=%s fast=%s", mf.Cycle(), pd, fd)
				}
				if s := asleep(mf); s <= 32 {
					t.Fatalf("at cycle %d only %d of 64 cores sleep; the horizon should end in a quiet stretch", mf.Cycle(), s)
				}
			}
		})
		t.Run("watchdog/"+k.app, func(t *testing.T) {
			run := func(pure bool) (*sim.Result, *sim.DeadlockError) {
				res, err := build(sim.Config{PureStepping: pure, WatchdogCycles: k.watchdog,
					WPlusTimeout: k.watchdog}).Run()
				var de *sim.DeadlockError
				if !errors.As(err, &de) {
					t.Fatalf("pure=%v: want a watchdog stop, got %v", pure, err)
				}
				return res, de
			}
			pure, pe := run(true)
			fast, fe := run(false)
			if pe.Cycle != fe.Cycle {
				t.Errorf("watchdog fires at cycle %d pure, %d fast", pe.Cycle, fe.Cycle)
			}
			if pd, fd := pure.Digest(), fast.Digest(); pd != fd {
				t.Errorf("partial results diverge: pure=%s fast=%s", pd, fd)
			}
		})
		t.Run("core/"+k.app, func(t *testing.T) {
			mp, mf := build(sim.Config{PureStepping: true}), build(sim.Config{})
			for !mp.Finished() {
				mp.Step()
				mf.Step()
				if mp.Cycle()%97 != 0 {
					continue
				}
				for i := 0; i < 64; i++ {
					if p, f := mp.Core(i).Stats(), mf.Core(i).Stats(); !reflect.DeepEqual(p, f) {
						t.Fatalf("cycle %d core %d: stats diverge:\npure %+v\nfast %+v", mp.Cycle(), i, *p, *f)
					}
				}
			}
		})
	}
}
