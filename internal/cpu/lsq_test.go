package cpu_test

import (
	"strings"
	"testing"

	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/workloads/litmus"
)

// stepChecked builds a machine running progs under design d and steps it
// one cycle at a time to completion, checking every core's load and
// store queues against its ROB after each cycle.
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
// other than retirement (a branch-mispredict squash, a speculative-load
// squash on invalidation and a W+ rollback) and checks after every cycle
// that lq is exactly the ROB's unissued loads and sq exactly its stores.
func TestQueuesTrackROB(t *testing.T) {
	idle := litmus.Idle()
	for _, d := range fence.AllDesigns {
		t.Run("mispredict/"+d.String(), func(t *testing.T) {
			p, store := mispredictProgram()
			m := stepChecked(t, d, store, p)
			if m.Core(0).Stats().Mispredicts == 0 {
				t.Fatal("no misprediction recorded")
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
