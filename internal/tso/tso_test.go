package tso

import (
	"runtime"
	"runtime/debug"
	"testing"

	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/workloads/litmus"
)

// sb builds the classic two-thread store-buffering pattern over the
// first two words of the region, with the given fence op (isa.Nop for
// none) between each thread's store and load.
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

// bothOld is the key of the store-buffering "both threads read the
// initial value" outcome: the one TSO allows without fences and forbids
// with a fence on both sides.
func bothOld(progs []*isa.Program, shared mem.Region, t *testing.T) string {
	t.Helper()
	// Both stores retired, both loads saw the pre-store image.
	o := litmus.Outcome{
		Regs: [][4]uint32{
			{litmus.InitWord(1), 0, 0, 0},
			{litmus.InitWord(0), 0, 0, 0},
		},
		Mem: []uint32{1, 1},
	}
	for i := 2; i < int(shared.Size/mem.WordSize); i++ {
		o.Mem = append(o.Mem, litmus.InitWord(i))
	}
	return o.Key()
}

func region() mem.Region { return mem.Region{Base: 0x1000, Size: mem.LineSize} }

func TestSBWithoutFencesAllowsBothOld(t *testing.T) {
	shared := region()
	progs := sb(shared.Base, isa.Nop)
	res, err := Enumerate(progs, shared, Config{Semantics: Strong})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("SB exploration incomplete after %d states", res.States)
	}
	if !res.Outcomes.Has(bothOld(progs, shared, t)) {
		t.Fatalf("fence-free SB must allow the both-old outcome; got:\n%v", res.Outcomes.Keys())
	}
}

func TestSBStrongFencesForbidBothOld(t *testing.T) {
	shared := region()
	for _, f := range []isa.Op{isa.SFence, isa.WFence} {
		progs := sb(shared.Base, f)
		res, err := Enumerate(progs, shared, Config{Semantics: Strong})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcomes.Has(bothOld(progs, shared, t)) {
			t.Fatalf("%v-fenced SB must forbid the both-old outcome under Strong", f)
		}
	}
}

func TestSBWeakFenceRelaxedAllowsBothOld(t *testing.T) {
	shared := region()
	progs := sb(shared.Base, isa.WFence)
	res, err := Enumerate(progs, shared, Config{Semantics: Relaxed})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcomes.Has(bothOld(progs, shared, t)) {
		t.Fatal("wfence SB under Relaxed must re-admit the both-old outcome")
	}
	// sfence still drains under Relaxed.
	progs = sb(shared.Base, isa.SFence)
	res, err = Enumerate(progs, shared, Config{Semantics: Relaxed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes.Has(bothOld(progs, shared, t)) {
		t.Fatal("sfence SB must forbid the both-old outcome even under Relaxed")
	}
}

// TestStrongSubsetOfRelaxed: every Strong-reachable outcome of a
// generated racy program must also be Relaxed-reachable.
func TestStrongSubsetOfRelaxed(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		al := mem.NewAllocator(0x1000)
		g := litmus.Generate(al, litmus.GenConfig{Seed: seed, NCores: 2, OpsPerCore: 8, SharedLines: 1})
		strong, err := Enumerate(g.Programs, g.Shared, Config{Semantics: Strong})
		if err != nil {
			t.Fatal(err)
		}
		relaxed, err := Enumerate(g.Programs, g.Shared, Config{Semantics: Relaxed})
		if err != nil {
			t.Fatal(err)
		}
		if !strong.Complete || !relaxed.Complete {
			t.Fatalf("seed %d: incomplete exploration (%d/%d states)", seed, strong.States, relaxed.States)
		}
		for k := range strong.Outcomes {
			if !relaxed.Outcomes.Has(k) {
				t.Fatalf("seed %d: Strong outcome %q not Relaxed-reachable", seed, k)
			}
		}
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	al := mem.NewAllocator(0x1000)
	g := litmus.Generate(al, litmus.GenConfig{Seed: 7, NCores: 2, OpsPerCore: 8, SharedLines: 1})
	run := func() ([]string, int) {
		res, err := Enumerate(g.Programs, g.Shared, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Outcomes.Keys(), res.States
	}
	k1, s1 := run()
	k2, s2 := run()
	if s1 != s2 || len(k1) != len(k2) {
		t.Fatalf("nondeterministic enumeration: %d/%d states, %d/%d outcomes", s1, s2, len(k1), len(k2))
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("outcome %d differs: %q vs %q", i, k1[i], k2[i])
		}
	}
}

func TestStateCapMarksIncomplete(t *testing.T) {
	al := mem.NewAllocator(0x1000)
	g := litmus.Generate(al, litmus.GenConfig{Seed: 3, NCores: 4, OpsPerCore: 12, SharedLines: 1})
	res, err := Enumerate(g.Programs, g.Shared, Config{MaxStates: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("a 10-state cap cannot complete a 4-thread exploration")
	}
}

func TestRunawayLocalLoopDetected(t *testing.T) {
	b := isa.NewBuilder("spin")
	b.Label("l")
	b.AddI(2, 2, 1)
	b.Jmp("l")
	b.Halt()
	progs := []*isa.Program{b.MustBuild()}
	_, err := Enumerate(progs, region(), Config{})
	if err == nil {
		t.Fatal("backward local loop not detected")
	}
}

func TestLocalR0Hardwired(t *testing.T) {
	var r Regs
	// li r0, 5 must be discarded; reads of r0 return 0.
	pc, ok := Local(isa.Instr{Op: isa.Li, Dst: isa.R0, Imm: 5}, 0, &r)
	if !ok || pc != 1 || r.Get(isa.R0) != 0 {
		t.Fatalf("R0 write not discarded: pc=%d r0=%d", pc, r.Get(isa.R0))
	}
	r.Set(3, 7)
	pc, ok = Local(isa.Instr{Op: isa.Add, Dst: 4, Src1: 3, Src2: isa.R0}, 0, &r)
	if !ok || pc != 1 || r.Get(4) != 7 {
		t.Fatalf("add with R0 wrong: r4=%d", r.Get(4))
	}
	// Memory ops are not local.
	if _, ok := Local(isa.Instr{Op: isa.Ld}, 0, &r); ok {
		t.Fatal("Ld reported as local")
	}
	if _, ok := Local(isa.Instr{Op: isa.Halt}, 0, &r); ok {
		t.Fatal("Halt reported as local")
	}
}

// TestEnumerateAllocsPerState: over the closures of seeds 1-100 in
// conform's default shape, both semantics, Enumerate allocates fewer
// than 2 times and under 1 KiB per visited state: the state's key
// string and its share of the visited set and the stack. Counted from
// runtime.MemStats on one P with the collector off.
func TestEnumerateAllocsPerState(t *testing.T) {
	var groups []litmus.GenResult
	for seed := uint64(1); seed <= 100; seed++ {
		groups = append(groups, conformSeed(seed))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	states := 0
	runtime.ReadMemStats(&before)
	for _, g := range groups {
		for _, sem := range []Semantics{Strong, Relaxed} {
			res, err := Enumerate(g.Programs, g.Shared, Config{Semantics: sem})
			if err != nil || !res.Complete {
				t.Fatalf("%d cores: complete=%v err=%v", g.NCores, res.Complete, err)
			}
			states += res.States
		}
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(states)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(states)
	t.Logf("%d states: %.2f allocations and %.0f bytes per state", states, allocs, bytes)
	if allocs >= 2 || bytes >= 1024 {
		t.Errorf("%.2f allocations and %.0f bytes per state, want under 2 and 1024", allocs, bytes)
	}
}
