package litmusrun

import (
	"errors"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
	"testing"

	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/tso"
	"asymfence/internal/workloads/litmus"
	asymruntime "asymfence/runtime"
)

func testableModes() []asymruntime.Mode {
	ms := []asymruntime.Mode{asymruntime.ModeFallback}
	if asymruntime.Supported() {
		ms = append(ms, asymruntime.ModeMembarrier)
	}
	return ms
}

func setMode(t *testing.T, m asymruntime.Mode) {
	t.Helper()
	if err := asymruntime.Use(m); err != nil {
		t.Skipf("mode %v unavailable: %v", m, err)
	}
	t.Cleanup(func() { _ = asymruntime.Use(asymruntime.ModeAuto) })
}

// sb builds the classic store-buffering pair with a fence op between
// each thread's store and load (isa.Nop for none).
func sb(base mem.Addr, f isa.Op) []*isa.Program {
	build := func(name string, st, ld mem.Addr) *isa.Program {
		b := isa.NewBuilder(name)
		b.Li(1, int32(st))
		b.Li(2, 1)
		b.St(2, 1, 0)
		switch f {
		case isa.SFence:
			b.SFence()
		case isa.WFence:
			b.WFence()
		}
		b.Li(1, int32(ld))
		b.Ld(10, 1, 0)
		b.Halt()
		return b.MustBuild()
	}
	x, y := base, base+mem.WordSize
	return []*isa.Program{build("sb.t0", x, y), build("sb.t1", y, x)}
}

// TestOutcomesWithinTSOStrongClosure is the conformance core: every
// final state real goroutines produce must be inside the reference
// machine's strong closure, for fence-free, weak-fenced and
// strong-fenced store buffering, in every available fence mode.
func TestOutcomesWithinTSOStrongClosure(t *testing.T) {
	shared := mem.Region{Base: 0x1000, Size: mem.LineSize}
	for _, m := range testableModes() {
		for _, f := range []isa.Op{isa.Nop, isa.WFence, isa.SFence} {
			t.Run(m.String()+"/"+f.String(), func(t *testing.T) {
				setMode(t, m)
				progs := sb(shared.Base, f)
				allowed, err := tso.Enumerate(progs, shared, tso.Config{Semantics: tso.Strong})
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(progs, shared, Config{Iterations: 300, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				if res.Iterations != 300 {
					t.Fatalf("Iterations = %d, want 300", res.Iterations)
				}
				for _, k := range res.Outcomes.Keys() {
					if !allowed.Outcomes.Has(k) {
						t.Errorf("hardware outcome %q outside the TSO strong closure:\n%v",
							k, allowed.Outcomes.Keys())
					}
				}
			})
		}
	}
}

// TestGeneratedProgramsConform cross-checks generated racy programs:
// real runs must stay inside the enumerator's strong closure.
func TestGeneratedProgramsConform(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		al := mem.NewAllocator(0x1000)
		g := litmus.Generate(al, litmus.GenConfig{Seed: seed, NCores: 2, OpsPerCore: 8, SharedLines: 1})
		allowed, err := tso.Enumerate(g.Programs, g.Shared, tso.Config{Semantics: tso.Strong})
		if err != nil {
			t.Fatal(err)
		}
		if !allowed.Complete {
			t.Fatalf("seed %d: enumeration incomplete", seed)
		}
		res, err := Run(g.Programs, g.Shared, Config{Iterations: 100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range res.Outcomes.Keys() {
			if !allowed.Outcomes.Has(k) {
				t.Errorf("seed %d: hardware outcome %q outside the strong closure", seed, k)
			}
		}
	}
}

// TestExtraWordsObserved: out-of-region writes surface in the outcome,
// identically to the TSO machine's encoding. With two extra words the
// order in which the image's sync.Map lists them varies from iteration
// to iteration; the Run must still add exactly one key.
func TestExtraWordsObserved(t *testing.T) {
	shared := mem.Region{Base: 0x1000, Size: mem.LineSize}
	for _, in := range []struct {
		addrs []int32 // each outside the region
		iters int
	}{{[]int32{0x40}, 4}, {[]int32{0x40, 0x2000}, 64}} {
		b := isa.NewBuilder("extra")
		for _, a := range in.addrs {
			b.Li(1, a)
			b.Li(2, 7)
			b.St(2, 1, 0)
		}
		b.Ld(10, 1, 0)
		b.Halt()
		progs := []*isa.Program{b.MustBuild()}

		want, err := tso.Enumerate(progs, shared, tso.Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(progs, shared, Config{Iterations: in.iters, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		keys := res.Outcomes.Keys()
		if len(keys) != 1 || !want.Outcomes.Has(keys[0]) {
			t.Fatalf("%d extra words: hardware outcomes %v != tso outcomes %v", len(in.addrs), keys, want.Outcomes.Keys())
		}
	}
}

// TestRunStopsNoWorld: Run leaves the scheduler's settings alone, so
// it adds no stop-the-world pause. With the collector off, every pause
// the runtime counts as other than the collector's during a Run would
// be Run's own (a GOMAXPROCS switch is one).
func TestRunStopsNoWorld(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sample := []metrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
	pauses := func() uint64 {
		metrics.Read(sample) // the metric exists since Go 1.22, go.mod's floor
		var n uint64
		for _, c := range sample[0].Value.Float64Histogram().Counts {
			n += c
		}
		return n
	}
	shared := mem.Region{Base: 0x1000, Size: mem.LineSize}
	progs := sb(shared.Base, isa.SFence)
	before := pauses()
	res, err := Run(progs, shared, Config{Iterations: 256, Seed: 5})
	after := pauses()
	if err != nil || res.Iterations != 256 {
		t.Fatalf("Run: %d iterations, err %v", res.Iterations, err)
	}
	if after != before {
		t.Errorf("Run stopped the world %d times", after-before)
	}
	if got := runtime.GOMAXPROCS(0); got != 3 {
		t.Errorf("GOMAXPROCS %d after Run, want 3 untouched", got)
	}
}

func TestRunawayDetected(t *testing.T) {
	b := isa.NewBuilder("spin")
	b.Label("l")
	b.Li(1, 0x1000)
	b.Ld(10, 1, 0) // memory op so the loop is not purely local
	b.Jmp("l")
	b.Halt()
	_, err := Run([]*isa.Program{b.MustBuild()},
		mem.Region{Base: 0x1000, Size: mem.LineSize},
		Config{Iterations: 1, MaxSteps: 1000})
	if !errors.Is(err, ErrRunaway) {
		t.Fatalf("err = %v, want ErrRunaway", err)
	}
}

func TestNoPrograms(t *testing.T) {
	if _, err := Run(nil, mem.Region{}, Config{}); err == nil {
		t.Fatal("Run(nil) succeeded")
	}
}

// TestRunAllocationsFlat: the crew reuses its goroutines, image,
// register files and raw-state buffer, and formats a key only for a
// final state new to the Run, so a Run of a program with one final
// state allocates the same at 8 and at 512 iterations.
func TestRunAllocationsFlat(t *testing.T) {
	shared := mem.Region{Base: 0x1000, Size: mem.LineSize}
	build := func(name string, a mem.Addr) *isa.Program {
		b := isa.NewBuilder(name)
		b.Li(1, int32(a))
		b.Li(2, 5)
		b.St(2, 1, 0)
		b.Ld(10, 1, 0)
		b.Halt()
		return b.MustBuild()
	}
	progs := []*isa.Program{build("t0", shared.Base), build("t1", shared.Base+mem.WordSize)}
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(5, func() {
			res, err := Run(progs, shared, Config{Iterations: iters})
			if err != nil || len(res.Outcomes) != 1 {
				t.Fatalf("%d iterations: %d outcomes, err %v", iters, len(res.Outcomes), err)
			}
		})
	}
	few, many := allocs(8), allocs(512)
	t.Logf("Run allocates %v times at 8 iterations, %v at 512", few, many)
	if many > few+4 {
		t.Errorf("Run allocates %v times at 512 iterations, %v at 8: per-iteration allocations", many, few)
	}
}

// TestWorkersExit: no worker goroutine outlives its Run, after a clean
// 4-thread Run and after a runaway last thread.
func TestWorkersExit(t *testing.T) {
	// A worker that has signalled its exit may still be unwinding.
	settled := func(what string, n int) {
		t.Helper()
		for i := 0; runtime.NumGoroutine() > n; i++ {
			if i == 1000 {
				t.Fatalf("%s: %d goroutines after Run, %d before", what, runtime.NumGoroutine(), n)
			}
			runtime.Gosched()
		}
	}
	before := runtime.NumGoroutine()

	g := litmus.Generate(mem.NewAllocator(0x1000), litmus.GenConfig{Seed: 4, NCores: 4, OpsPerCore: 5, SharedLines: 1})
	res, err := Run(g.Programs, g.Shared, Config{Iterations: 64, Seed: 3})
	if err != nil || res.Iterations != 64 {
		t.Fatalf("4 threads: %d iterations, err %v", res.Iterations, err)
	}
	settled("4 threads", before)

	shared := mem.Region{Base: 0x1000, Size: mem.LineSize}
	progs := sb(shared.Base, isa.SFence)
	spin := isa.NewBuilder("spin")
	spin.Label("l")
	spin.Li(1, int32(shared.Base))
	spin.Ld(10, 1, 0)
	spin.Jmp("l")
	spin.Halt()
	progs = append(progs, spin.MustBuild())
	if _, err := Run(progs, shared, Config{Iterations: 8, MaxSteps: 1000}); !errors.Is(err, ErrRunaway) {
		t.Fatalf("err = %v, want ErrRunaway", err)
	}
	settled("runaway", before)
}

// TestRecordFormatsEachDistinctState drives the crew's record step on
// hand-set final states, each differing from the one before in a single
// value at an edge of the raw encoding. Every one must add the key
// ExtractOutcome gives it, and recording a state again adds nothing.
func TestRecordFormatsEachDistinctState(t *testing.T) {
	shared := mem.Region{Base: 0x1000, Size: mem.LineSize}
	progs := append(sb(shared.Base, isa.Nop), sb(shared.Base, isa.SFence)...)
	c := newCrew(progs, shared, 1000)
	defer c.stop()
	last := len(progs) - 1
	lastReg := litmus.ObservedRegs[len(litmus.ObservedRegs)-1]
	lastWord := len(c.img.words) - 1
	c.img.cell(0x40).Store(7)
	c.img.cell(0x2000).Store(8)

	out := litmus.NewOutcomeSet()
	for _, step := range []struct {
		name string
		set  func()
	}{
		{"initial state with two extra words", func() {}},
		{"last thread's last observed register", func() { c.regs[last].Set(lastReg, 1) }},
		{"last shared word", func() { c.img.words[lastWord].Store(2) }},
		{"last extra word", func() { c.img.cell(0x2000).Store(9) }},
		{"first extra word", func() { c.img.cell(0x40).Store(0) }},
		{"a new extra word holding zero", func() { c.img.cell(0x3000).Store(0) }},
	} {
		step.set()
		want := litmus.ExtractOutcome(len(progs), shared,
			func(t int, r isa.Reg) uint32 { return c.regs[t].Get(r) },
			c.img.load,
			func(f func(a mem.Addr, v uint32)) {
				c.img.extra.Range(func(k, v any) bool {
					f(k.(mem.Addr), v.(*atomic.Uint32).Load())
					return true
				})
			}).Key()
		n := len(out)
		c.record(out)
		if len(out) != n+1 || !out.Has(want) {
			t.Errorf("%s: the set went from %d to %d keys, want %d with %q", step.name, n, len(out), n+1, want)
		}
		c.record(out)
		if len(out) != n+1 || len(c.seen) != n+1 {
			t.Errorf("%s recorded again: %d keys and %d raw states, want %d", step.name, len(out), len(c.seen), n+1)
		}
	}
}
