package litmusrun

import (
	"errors"
	"runtime"
	"slices"
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
// identically to the TSO machine's encoding.
func TestExtraWordsObserved(t *testing.T) {
	shared := mem.Region{Base: 0x1000, Size: mem.LineSize}
	b := isa.NewBuilder("extra")
	b.Li(1, 0x40) // outside the region
	b.Li(2, 7)
	b.St(2, 1, 0)
	b.Ld(10, 1, 0)
	b.Halt()
	progs := []*isa.Program{b.MustBuild()}

	want, err := tso.Enumerate(progs, shared, tso.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(progs, shared, Config{Iterations: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	keys := res.Outcomes.Keys()
	if len(keys) != 1 || !want.Outcomes.Has(keys[0]) {
		t.Fatalf("hardware outcomes %v != tso outcomes %v", keys, want.Outcomes.Keys())
	}
}

// TestSweepGroupsByProcs: Run's sweep runs every iteration exactly
// once, under its own GOMAXPROCS choice, grouped by that choice in
// procChoices order and ascending within a group, and restores
// GOMAXPROCS; with NoProcsJitter it runs them in order and leaves
// GOMAXPROCS alone.
func TestSweepGroupsByProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, seed := range []uint64{1, 7, 0x9e3779b97f4a7c15} {
		cfg := Config{Iterations: 256, Seed: seed}
		var order []int
		err := sweep(cfg, func(it int) error {
			if got, want := runtime.GOMAXPROCS(0), procsFor(seed, it); got != want {
				t.Errorf("seed %d iteration %d ran at GOMAXPROCS %d, its choice is %d", seed, it, got, want)
			}
			order = append(order, it)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := runtime.GOMAXPROCS(0); got != 3 {
			t.Errorf("seed %d: GOMAXPROCS %d after the sweep, want 3 restored", seed, got)
		}
		// The expected order: each choice's iterations, ascending.
		var want []int
		for _, p := range procChoices {
			n := len(want)
			for it := 0; it < cfg.Iterations; it++ {
				if procsFor(seed, it) == p {
					want = append(want, it)
				}
			}
			if len(want) == n {
				t.Errorf("seed %d: no iteration chose GOMAXPROCS %d", seed, p)
			}
		}
		if !slices.Equal(order, want) {
			t.Errorf("seed %d: iterations ran in the order %v, want %v", seed, order, want)
		}
	}

	var order []int
	_ = sweep(Config{Iterations: 5, Seed: 1, NoProcsJitter: true}, func(it int) error {
		if got := runtime.GOMAXPROCS(0); got != 3 {
			t.Errorf("NoProcsJitter: iteration %d ran at GOMAXPROCS %d, want 3", it, got)
		}
		order = append(order, it)
		return nil
	})
	if !slices.Equal(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("NoProcsJitter: iterations ran in the order %v", order)
	}

	shared := mem.Region{Base: 0x1000, Size: mem.LineSize}
	res, err := Run(sb(shared.Base, isa.SFence), shared, Config{Iterations: 40, Seed: 5})
	if err != nil || res.Iterations != 40 {
		t.Fatalf("Run: %d iterations, err %v", res.Iterations, err)
	}
	if got := runtime.GOMAXPROCS(0); got != 3 {
		t.Errorf("GOMAXPROCS %d after Run, want 3 restored", got)
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
		Config{Iterations: 1, MaxSteps: 1000, NoProcsJitter: true})
	if !errors.Is(err, ErrRunaway) {
		t.Fatalf("err = %v, want ErrRunaway", err)
	}
}

func TestNoPrograms(t *testing.T) {
	if _, err := Run(nil, mem.Region{}, Config{}); err == nil {
		t.Fatal("Run(nil) succeeded")
	}
}
