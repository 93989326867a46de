package cpu_test

import (
	"testing"

	"asymfence/internal/cpu"
	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
)

// runPair runs two programs on a 4-core machine under the given design.
func runPair(t *testing.T, d fence.Design, p0, p1 *isa.Program, store *mem.Store) *sim.Machine {
	t.Helper()
	if store == nil {
		store = mem.NewStore()
	}
	idle := isa.NewBuilder("idle").Halt().MustBuild()
	m, err := sim.New(sim.Config{NCores: 4, Design: d},
		[]*isa.Program{p0, p1, idle, idle}, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("%v: %v", d, err)
	}
	return m
}

// TestWeakFenceRetiresImmediately: under WS+, a wf with pending stores
// retires without stalling and the post-fence load completes early into
// the Bypass Set.
func TestWeakFenceRetiresImmediately(t *testing.T) {
	b := isa.NewBuilder("wf")
	b.Li(1, 0x9000) // cold line: ~200-cycle store
	b.Li(2, 1)
	b.St(2, 1, 0)
	b.WFence()
	b.Li(3, 0xA000)
	b.Ld(4, 3, 0)
	b.Halt()
	idle := isa.NewBuilder("idle").Halt().MustBuild()
	m := runPair(t, fence.WSPlus, b.MustBuild(), idle, nil)
	st := m.Core(0).Stats()
	if st.WFences != 1 {
		t.Fatalf("wf count %d", st.WFences)
	}
	if st.FenceStallCycles > 20 {
		t.Fatalf("weak fence stalled %d cycles", st.FenceStallCycles)
	}
}

// TestBrokenFenceBreaksOnlySFence: DebugBrokenFence lets an SFence
// retire over two pending cold stores, while the fences that only behave
// strongly, a WFence under S+ and a WeeFence demoted because its pending
// set spans two directory modules, still stall until the stores drain.
func TestBrokenFenceBreaksOnlySFence(t *testing.T) {
	cpu.DebugBrokenFence = true
	defer func() { cpu.DebugBrokenFence = false }()
	idle := isa.NewBuilder("idle").Halt().MustBuild()
	for _, c := range []struct {
		name   string
		design fence.Design
		weak   bool
		drains bool
	}{
		{"sfence", fence.SPlus, false, false},
		{"wfence under S+", fence.SPlus, true, true},
		{"demoted WeeFence", fence.Wee, true, true},
	} {
		b := isa.NewBuilder("broken")
		b.Li(1, 0x9000) // two cold lines, homed in modules 0 and 1
		b.Li(2, 1)
		b.St(2, 1, 0)
		b.St(2, 1, mem.LineSize)
		b.Fence(c.weak)
		b.Halt()
		st := runPair(t, c.design, b.MustBuild(), idle, nil).Core(0).Stats()
		if drained := st.FenceStallCycles >= 100; drained != c.drains {
			t.Errorf("%s: fence stalled %d cycles over two cold stores; drains = %v, want %v",
				c.name, st.FenceStallCycles, drained, c.drains)
		}
	}
}

// TestBypassSetCapacityStallsRetirement: with a tiny Bypass Set, the
// post-fence loads beyond its capacity cannot retire early and the core
// stalls on the fence instead.
func TestBypassSetCapacityStalls(t *testing.T) {
	build := func() *isa.Program {
		b := isa.NewBuilder("bs")
		b.Li(3, 0xA000)
		for i := 0; i < 8; i++ { // warm the post-fence lines
			b.Ld(4, 3, int32(i*mem.LineSize))
		}
		b.Li(1, 0x9000)
		b.Li(2, 1)
		b.St(2, 1, 0) // cold store keeps the fence incomplete ~200 cycles
		b.WFence()
		for i := 0; i < 8; i++ { // 8 distinct post-fence lines (L1 hits)
			b.Ld(4, 3, int32(i*mem.LineSize))
		}
		b.Halt()
		return b.MustBuild()
	}
	run := func(capacity int) uint64 {
		idle := isa.NewBuilder("idle").Halt().MustBuild()
		m, err := sim.New(sim.Config{
			NCores: 4, Design: fence.WSPlus,
			BSCapacity: capacity,
		}, []*isa.Program{build(), idle, idle, idle}, mem.NewStore())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Core(0).Stats().FenceStallCycles
	}
	small := run(2)
	big := run(32)
	if small <= big {
		t.Fatalf("BS capacity 2 stalled %d <= capacity 32 stalled %d", small, big)
	}
}

// specSquashPrograms builds a post-sf load that performs early and is
// squashed when its line is invalidated before the fence completes. T0's
// tail, an Xchg (which executes only at the ROB head) and a load of the
// address the Xchg returns, keeps a store in sq and an unissued load in
// lq across the squash.
func specSquashPrograms() (p0, p1 *isa.Program, y mem.Addr) {
	const x = mem.Addr(0x1000)
	y = 0x1100
	// T0: warm y; slow store to x; sfence; ld y (speculates, must end up
	// seeing T1's store to y because the sf holds retirement).
	b0 := isa.NewBuilder("t0")
	b0.Li(1, int32(y))
	b0.Ld(2, 1, 0) // warm y into the L1 so the spec load hits
	b0.Li(1, int32(x))
	b0.Li(2, 1)
	b0.St(2, 1, 0) // ~200-cycle cold store
	b0.SFence()
	b0.Li(1, int32(y))
	b0.Ld(10, 1, 0)
	b0.Xchg(12, 10, 1, 8)
	b0.Ld(13, 12, int32(y))
	b0.Halt()
	// T1: waits a moment, then writes y.
	b1 := isa.NewBuilder("t1")
	b1.Work(60)
	b1.Li(1, int32(y))
	b1.Li(2, 7)
	b1.St(2, 1, 0)
	b1.Halt()
	return b0.MustBuild(), b1.MustBuild(), y
}

// TestSpeculativeLoadSquash: a post-sf load that performed early gets
// squashed when the line is invalidated before the fence completes, and
// re-executes to read the new value.
func TestSpeculativeLoadSquash(t *testing.T) {
	p0, p1, y := specSquashPrograms()
	m := runPair(t, fence.SPlus, p0, p1, nil)
	if got := m.Core(0).Reg(10); got != 7 {
		t.Fatalf("post-fence load read %d, want 7 (squash-and-replay broken)", got)
	}
	if got := m.Store().Load(y + 8); got != 7 {
		t.Fatalf("mem[y+8] = %d, want 7 (the Xchg must store the replayed value)", got)
	}
	if got := m.Core(0).Reg(13); got != 7 {
		t.Fatalf("r13 = %d, want 7 (a load of y after the Xchg)", got)
	}
	if m.Core(0).Stats().Squashes == 0 {
		t.Fatal("no squash recorded")
	}
}

// TestDirtyEvictionKeepsSharerMonitoring (paper §5.1): a Bypass-Set line
// evicted dirty must keep bouncing remote writes — the keep-as-sharer
// writeback preserves the monitoring.
func TestDirtyEvictionKeepSharer(t *testing.T) {
	// T0 writes line L, reads it back post-fence (L in BS, Modified),
	// then thrashes its L1 set to force L's dirty eviction; T1 then
	// writes L, which must bounce until T0's fence completes.
	const L = mem.Addr(0x10000)
	b0 := isa.NewBuilder("t0")
	b0.Li(1, int32(L))
	b0.Li(2, 5)
	b0.St(2, 1, 0) // L becomes Modified locally once drained...
	b0.Li(3, 0x20000)
	b0.Li(4, 1)
	b0.St(4, 3, 0) // cold store keeps the fence active long
	b0.WFence()
	b0.Ld(10, 1, 0) // L into the BS (forwarded or from cache)
	// Thrash the set containing L: lines L + k*setStride.
	// L1: 32KB 4-way, 32B lines -> 256 sets, set stride = 8KB.
	for i := 1; i <= 6; i++ {
		b0.Li(5, int32(L)+int32(i*8192))
		b0.Ld(6, 5, 0)
	}
	b0.Halt()
	b1 := isa.NewBuilder("t1")
	b1.Work(400)
	b1.Li(1, int32(L))
	b1.Li(2, 9)
	b1.St(2, 1, 0)
	b1.Halt()
	m := runPair(t, fence.WSPlus, b0.MustBuild(), b1.MustBuild(), nil)
	// The final value must be T1's (its write eventually completes), and
	// the machine must terminate (bounce resolves when the fence does).
	if got := m.Store().Load(L); got != 9 {
		t.Fatalf("final value %d, want 9", got)
	}
}
