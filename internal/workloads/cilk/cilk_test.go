package cilk_test

import (
	"testing"

	"asymfence/internal/fence"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/stats"
	"asymfence/internal/workloads/cilk"
)

func runApp(t *testing.T, p cilk.Profile, design fence.Design, ncores int) (*sim.Result, *cilk.Workload) {
	t.Helper()
	al := mem.NewAllocator(0x1000)
	store := mem.NewStore()
	privacy := mem.NewPrivacy()
	wl := cilk.Build(p, ncores, cilk.AssignmentFor(design), 42, al, store, privacy)
	m, err := sim.New(sim.Config{
		NCores: ncores, Design: design, Privacy: privacy, MaxCycles: 50_000_000,
		WarmRegions: wl.WarmRegions,
	}, wl.Progs, store)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("%s under %v: %v (cycle %d)", p.Name, design, err, m.Cycle())
	}
	return res, wl
}

// TestAllTasksExecutedExactlyOnce is the work-stealing correctness
// invariant: the THE protocol's fences prevent the double-execution SCV
// (paper §4.1), and the termination protocol loses no tasks.
func TestAllTasksExecutedExactlyOnce(t *testing.T) {
	p, _ := cilk.AppByName("fib")
	p.TasksPerWorker = 40
	for _, d := range fence.AllDesigns {
		res, wl := runApp(t, p, d, 4)
		agg := res.Agg()
		if got := agg.Events[stats.EvTask]; got != uint64(wl.TotalTasks) {
			t.Errorf("%v: executed %d tasks, want %d", d, got, wl.TotalTasks)
		}
	}
}

// TestWeakFenceReducesFenceStall checks the headline direction: the
// asymmetric designs eliminate most of the owner-side fence stall.
func TestWeakFenceReducesFenceStall(t *testing.T) {
	p, _ := cilk.AppByName("bucket")
	p.TasksPerWorker = 60
	base, _ := runApp(t, p, fence.SPlus, 4)
	for _, d := range []fence.Design{fence.WSPlus, fence.SWPlus, fence.WPlus} {
		res, _ := runApp(t, p, d, 4)
		if res.Agg().FenceStallCycles*2 > base.Agg().FenceStallCycles {
			t.Errorf("%v: fence stall %d not well below S+ %d",
				d, res.Agg().FenceStallCycles, base.Agg().FenceStallCycles)
		}
		if res.Cycles >= base.Cycles {
			t.Errorf("%v: execution %d cycles not faster than S+ %d", d, res.Cycles, base.Cycles)
		}
	}
}

// TestStealRateIsLow checks the paper's <0.5%-stolen-tasks observation
// holds with the calibrated profiles (we allow a looser bound).
func TestStealRateIsLow(t *testing.T) {
	p, _ := cilk.AppByName("cilksort")
	res, wl := runApp(t, p, fence.SPlus, 8)
	steals := res.Agg().Events[stats.EvSteal]
	if frac := float64(steals) / float64(wl.TotalTasks); frac > 0.05 {
		t.Errorf("steal fraction %.3f too high", frac)
	}
}

// TestWeeStaysWeakOnCilk checks the paper's §7.2 observation: with the
// pending set confined to the deque line (private stores filtered),
// CilkApps' WeeFences are not demoted to strong fences.
func TestWeeStaysWeakOnCilk(t *testing.T) {
	p, _ := cilk.AppByName("fib")
	p.TasksPerWorker = 60
	res, _ := runApp(t, p, fence.Wee, 4)
	agg := res.Agg()
	if agg.WFences == 0 {
		t.Fatal("no weak fences executed")
	}
	if frac := float64(agg.DemotedWFences) / float64(agg.WFences+agg.DemotedWFences); frac > 0.10 {
		t.Errorf("Wee demoted %.1f%% of CilkApps fences; paper reports they remain weak", 100*frac)
	}
}
