package cpu_test

import (
	"strings"
	"testing"

	"asymfence/internal/cpu"
	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/workloads/litmus"
)

// stepChecked builds a machine running progs under design d and steps it
// one cycle at a time to completion, checking after each cycle every
// core's load and store queues against its ROB, and its producer
// references and wakeup lists.
func stepChecked(t *testing.T, d fence.Design, store *mem.Store, progs ...*isa.Program) *sim.Machine {
	t.Helper()
	if store == nil {
		store = mem.NewStore()
	}
	m, err := sim.New(sim.Config{NCores: len(progs), Design: d}, progs, store)
	if err != nil {
		t.Fatal(err)
	}
	for !m.Finished() {
		if m.Cycle() >= 100_000 {
			t.Fatalf("%v: not finished after %d cycles", d, m.Cycle())
		}
		m.Step()
		for i := range progs {
			if err := m.Core(i).CheckQueues(); err != nil {
				t.Fatalf("%v, cycle %d: %v", d, m.Cycle(), err)
			}
		}
	}
	return m
}

// TestQueuesTrackROB drives the ROB through each way it loses entries
// other than retirement (a branch-mispredict squash, one that squashes a
// consumer whose producer survives, a speculative-load squash on
// invalidation and a W+ rollback) and checks after every cycle that lq
// is exactly the ROB's unissued loads and sq exactly its stores, that
// the pool and the ROB together hold exactly the core's robBound
// entries, and that no producer reference or wakeup list names an entry
// that left the ROB. Every program but Bakery's is loop-free, so its
// pool is sized by its length; Bakery's spin loops keep all 140 ROB entries.
func TestQueuesTrackROB(t *testing.T) {
	idle := litmus.Idle()
	for _, d := range fence.AllDesigns {
		t.Run("loop/"+d.String(), func(t *testing.T) {
			progs, _ := litmus.Bakery(mem.NewAllocator(0x1000), 2, 2, []bool{true, false}, true)
			stepChecked(t, d, nil, progs...)
		})
		t.Run("mispredict/"+d.String(), func(t *testing.T) {
			p, store := mispredictProgram()
			m := stepChecked(t, d, store, p)
			if m.Core(0).Stats().Mispredicts == 0 {
				t.Fatal("no misprediction recorded")
			}
		})
		t.Run("consumer/"+d.String(), func(t *testing.T) {
			p, store := squashedConsumerProgram()
			m := stepChecked(t, d, store, p)
			if m.Core(0).Stats().Mispredicts == 0 {
				t.Fatal("no misprediction recorded")
			}
			if got := m.Core(0).Reg(9); got != 10 {
				t.Fatalf("r9 = %d, want 10", got)
			}
			if got := m.Core(0).Reg(8); got != 0 {
				t.Fatalf("r8 = %d, want 0 (wrong-path result leaked)", got)
			}
		})
		t.Run("squash/"+d.String(), func(t *testing.T) {
			p0, p1, _ := specSquashPrograms()
			m := stepChecked(t, d, nil, p0, p1, idle, idle)
			if m.Core(0).Stats().Squashes == 0 {
				t.Fatal("no squash recorded")
			}
		})
	}
	t.Run("rollback/W+", func(t *testing.T) {
		progs, lay := litmus.SB(mem.NewAllocator(0x1000), litmus.Weak, litmus.Weak, 3)
		// SB's threads end in a fence, a load that retires early and
		// Halt, so the rollback would find both queues empty. Before each
		// Halt, add an Xchg of a private word, which executes only at the
		// ROB head once the fence completes, and a load of the address it
		// returns, so the rollback cuts a store from sq and an unissued
		// load from lq.
		tail := isa.NewBuilder("tail").Xchg(12, 4, 11, 8).Ld(13, 12, int32(lay.X)).Halt().MustBuild().Instrs
		for i, p := range progs {
			n := len(p.Instrs) - 1
			progs[i] = &isa.Program{Name: p.Name, Instrs: append(p.Instrs[:n:n], tail...)}
		}
		m := stepChecked(t, fence.WPlus, nil, progs[0], progs[1], idle, idle)
		if m.Core(0).Stats().Recoveries+m.Core(1).Stats().Recoveries == 0 {
			t.Fatal("no W+ recovery recorded")
		}
	})
}

// TestRobBound: a program whose branches all jump forward is bounded by
// its length, anything else, or anything longer, by the ROB's 140 entries.
func TestRobBound(t *testing.T) {
	const robSize = 140
	build := func(n int, emit func(b *isa.Builder)) *isa.Program {
		b := isa.NewBuilder("bound")
		for i := 0; i < n; i++ {
			b.Nop()
		}
		emit(b)
		return b.Halt().MustBuild()
	}
	forward := func(b *isa.Builder) {
		b.Bne(1, isa.R0, "end").Jmp("end").Nop()
		b.Label("end")
	}
	backward := func(br func(b *isa.Builder)) func(b *isa.Builder) {
		return func(b *isa.Builder) {
			b.Label("top")
			b.Nop()
			br(b)
		}
	}
	for _, tc := range []struct {
		name string
		prog *isa.Program
		want int
	}{
		{"loop-free", build(6, forward), 10},
		{"longer than ROBSize", build(robSize, forward), robSize},
		{"backward bne", build(3, backward(func(b *isa.Builder) { b.Bne(1, isa.R0, "top") })), robSize},
		{"backward jmp", build(3, backward(func(b *isa.Builder) { b.Jmp("top") })), robSize},
		{"branch to itself", build(3, func(b *isa.Builder) {
			b.Label("self")
			b.Beq(1, isa.R0, "self")
		}), robSize},
		{"lone halt", build(0, func(*isa.Builder) {}), 1},
	} {
		if got := cpu.RobBound(tc.prog, robSize); got != tc.want {
			t.Errorf("%s (%d instructions): bound %d, want %d", tc.name, len(tc.prog.Instrs), got, tc.want)
		}
	}
}

// squashedConsumerProgram squashes a consumer whose producer survives:
// a wrong-path Add of a cold load's result waits on that load when a
// branch fed by a forwarded load resolves (predicted not-taken, actually
// taken) and squashes it, long before the cold load performs.
func squashedConsumerProgram() (*isa.Program, *mem.Store) {
	store := mem.NewStore()
	store.StoreWord(0x1000, 5)
	b := isa.NewBuilder("squashed-consumer")
	b.Li(1, 0x1000)
	b.Ld(6, 1, 0) // cold: the producer that survives
	b.Li(3, 1)
	b.St(3, 1, 8)
	b.Ld(2, 1, 8)             // forwards 1 from the store at once
	b.Bne(2, isa.R0, "taken") // forward, predicted not-taken, actually taken
	b.Add(8, 6, 6)            // wrong path: waits on the cold load twice
	b.Halt()
	b.Label("taken")
	b.Add(9, 6, 6)
	b.Halt()
	return b.MustBuild(), store
}

// TestDebugStateShowsBlockingStore: the diagnostic dump names the store
// that keeps the oldest unissued load from issuing.
func TestDebugStateShowsBlockingStore(t *testing.T) {
	b := isa.NewBuilder("blocked")
	b.Li(1, 0x1000)
	b.Ld(2, 1, 0)  // a cold miss
	b.St(1, 2, 0)  // its address waits on the miss
	b.Ld(3, 1, 32) // may not pass a store of unknown address
	b.Halt()
	m, err := sim.New(sim.Config{NCores: 1, Design: fence.SPlus}, []*isa.Program{b.MustBuild()}, mem.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m.Step()
	}
	got := m.Core(0).DebugState()
	for _, want := range []string{
		"lq=1 sq=1",
		"oldest unissued load: seq=4 pc=3 addrOK=true addr=0x1020 blocked by store seq=3 pc=2 addrOK=false dataOK=true",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("DebugState lacks %q:\n%s", want, got)
		}
	}
}
