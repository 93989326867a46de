package sim_test

import (
	"bytes"
	"testing"

	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/stats"
	"asymfence/internal/trace"
	"asymfence/internal/workloads/litmus"
)

const dataBase = 0x1000

// padIdle returns ncores programs: progs, then idle ones.
func padIdle(progs []*isa.Program, ncores int) []*isa.Program {
	all := make([]*isa.Program, ncores)
	for i := range all {
		if i < len(progs) {
			all[i] = progs[i]
		} else {
			all[i] = litmus.Idle()
		}
	}
	return all
}

// runMachine builds an n-core machine under the given design, running the
// provided programs on the first cores and idling the rest.
func runMachine(t *testing.T, design fence.Design, ncores int, progs []*isa.Program) (*sim.Machine, *sim.Result) {
	t.Helper()
	m, err := sim.New(sim.Config{NCores: ncores, Design: design}, padIdle(progs, ncores), mem.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("design %v: %v (cycle %d)", design, err, m.Cycle())
	}
	return m, res
}

func TestSBWithoutFencesViolatesSC(t *testing.T) {
	al := mem.NewAllocator(dataBase)
	progs, _ := litmus.SB(al, litmus.None, litmus.None, 3)
	m, _ := runMachine(t, fence.SPlus, 4, progs[:])
	r0 := m.Core(0).Reg(10)
	r1 := m.Core(1).Reg(10)
	if r0 != 0 || r1 != 0 {
		t.Fatalf("expected the SC violation (0,0) without fences, got (%d,%d)", r0, r1)
	}
}

func TestSBStrongFencesPreventSCV(t *testing.T) {
	for _, d := range fence.AllDesigns {
		al := mem.NewAllocator(dataBase)
		progs, _ := litmus.SB(al, litmus.Strong, litmus.Strong, 3)
		m, _ := runMachine(t, d, 4, progs[:])
		r0 := m.Core(0).Reg(10)
		r1 := m.Core(1).Reg(10)
		if r0 == 0 && r1 == 0 {
			t.Errorf("%v: SC violation with two strong fences: (0,0)", d)
		}
	}
}

func TestSBAsymmetricPreventSCVAndSpeedUpWeakThread(t *testing.T) {
	for _, d := range []fence.Design{fence.WSPlus, fence.SWPlus, fence.WPlus, fence.Wee} {
		al := mem.NewAllocator(dataBase)
		progs, _ := litmus.SB(al, litmus.Weak, litmus.Strong, 3)
		m, res := runMachine(t, d, 4, progs[:])
		r0 := m.Core(0).Reg(10)
		r1 := m.Core(1).Reg(10)
		if r0 == 0 && r1 == 0 {
			t.Errorf("%v: SC violation with asymmetric fences: (0,0)", d)
		}
		// The weak-fence thread should see (much) less fence stall than
		// the strong-fence thread.
		wfStall := res.Cores[0].FenceStallCycles
		sfStall := res.Cores[1].FenceStallCycles
		if d != fence.Wee && wfStall >= sfStall {
			t.Errorf("%v: wf thread stalled %d >= sf thread %d", d, wfStall, sfStall)
		}
	}
}

func TestSBAllWeakUnderWPlusRecovers(t *testing.T) {
	al := mem.NewAllocator(dataBase)
	progs, _ := litmus.SB(al, litmus.Weak, litmus.Weak, 3)
	m, res := runMachine(t, fence.WPlus, 4, progs[:])
	r0 := m.Core(0).Reg(10)
	r1 := m.Core(1).Reg(10)
	if r0 == 0 && r1 == 0 {
		t.Fatalf("W+: SC violation with all-weak group: (0,0)")
	}
	agg := res.Agg()
	if agg.Recoveries == 0 {
		t.Fatalf("W+: expected at least one deadlock recovery in the all-weak SB group")
	}
}

func TestSBAllWeakUnderWSPlusSilentlyViolates(t *testing.T) {
	// The WS+ contract requires at most one weak fence per group; with two
	// the Order operation silently permits the SC violation (paper
	// §3.3.1: "If this is incorrect, an SCV may silently occur").
	al := mem.NewAllocator(dataBase)
	progs, _ := litmus.SB(al, litmus.Weak, litmus.Weak, 3)
	m, _ := runMachine(t, fence.WSPlus, 4, progs[:])
	r0 := m.Core(0).Reg(10)
	r1 := m.Core(1).Reg(10)
	if !(r0 == 0 && r1 == 0) {
		t.Fatalf("WS+ with a 2-wf group should exhibit the documented silent SCV, got (%d,%d)", r0, r1)
	}
}

func TestThreeThreadCycleSWPlus(t *testing.T) {
	al := mem.NewAllocator(dataBase)
	progs, _ := litmus.ThreeThread(al, [3]litmus.FenceChoice{litmus.Weak, litmus.Weak, litmus.Strong}, 3)
	m, _ := runMachine(t, fence.SWPlus, 4, progs[:])
	vals := [3]uint32{m.Core(0).Reg(10), m.Core(1).Reg(10), m.Core(2).Reg(10)}
	if vals[0] == 0 && vals[1] == 0 && vals[2] == 0 {
		t.Fatalf("SW+: 3-thread cycle materialized: %v", vals)
	}
}

func TestThreeThreadCycleWPlusAllWeak(t *testing.T) {
	al := mem.NewAllocator(dataBase)
	progs, _ := litmus.ThreeThread(al, [3]litmus.FenceChoice{litmus.Weak, litmus.Weak, litmus.Weak}, 3)
	m, _ := runMachine(t, fence.WPlus, 4, progs[:])
	vals := [3]uint32{m.Core(0).Reg(10), m.Core(1).Reg(10), m.Core(2).Reg(10)}
	if vals[0] == 0 && vals[1] == 0 && vals[2] == 0 {
		t.Fatalf("W+: 3-thread cycle materialized: %v", vals)
	}
}

func TestFalseSharingResolvesWithoutDeadlock(t *testing.T) {
	for _, d := range []fence.Design{fence.WSPlus, fence.SWPlus, fence.WPlus} {
		al := mem.NewAllocator(dataBase)
		progs, _ := litmus.FalseSharing(al, [2]litmus.FenceChoice{litmus.Weak, litmus.Weak}, 3)
		// Run must terminate (no indefinite bouncing). The accesses form a
		// cycle only through false sharing, so any outcome is SC.
		runMachine(t, d, 4, progs[:])
	}
}

func TestBakeryMutualExclusion(t *testing.T) {
	const n, rounds = 4, 6
	for _, tc := range []struct {
		name   string
		design fence.Design
		weak   []bool
	}{
		{"S+/all-sf", fence.SPlus, []bool{false, false, false, false}},
		{"WS+/one-wf", fence.WSPlus, []bool{true, false, false, false}},
		{
			// Bakery groups form between arbitrary thread pairs (Fig. 6),
			// so two weak threads could form a no-sf group, which SW+'s
			// Conditional Order cannot resolve (§3.3.2 requires an sf in
			// the group for progress). Like WS+, SW+ admits one wf here.
			"SW+/one-wf", fence.SWPlus, []bool{true, false, false, false}},
		{"W+/all-wf", fence.WPlus, []bool{true, true, true, true}},
		{"Wee/all-wf", fence.Wee, []bool{true, true, true, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			al := mem.NewAllocator(dataBase)
			progs, lay := litmus.Bakery(al, n, rounds, tc.weak, true)
			m, res := runMachine(t, tc.design, n, progs)
			got := m.Store().Load(lay.Counter)
			if got != n*rounds {
				t.Fatalf("mutual exclusion broken: counter=%d want %d", got, n*rounds)
			}
			if ev := res.Agg().Events[stats.EvCritical]; ev != n*rounds {
				t.Fatalf("critical-section entries=%d want %d", ev, n*rounds)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	// Each run traces every event class and samples intervals; two
	// identical runs must agree not just on the aggregates but on the
	// byte-exact serialized event stream.
	run := func() (int64, uint64, []byte) {
		al := mem.NewAllocator(dataBase)
		progs, _ := litmus.Bakery(al, 4, 4, []bool{true, true, true, true}, true)
		tr := trace.New(trace.Options{})
		m, err := sim.New(sim.Config{
			NCores: 4, Design: fence.WPlus,
			Trace: tr, SampleInterval: 500,
		}, progs, mem.NewStore())
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		var chrome bytes.Buffer
		if err := trace.WriteChrome(&chrome, tr.Events(), res.Intervals, tr.Dropped()); err != nil {
			t.Fatal(err)
		}
		if tr.Len() == 0 || len(res.Intervals) == 0 {
			t.Fatalf("traced run recorded %d events, %d intervals", tr.Len(), len(res.Intervals))
		}
		return res.Cycles, res.Agg().RetiredInstrs, chrome.Bytes()
	}
	c1, i1, ch1 := run()
	c2, i2, ch2 := run()
	if c1 != c2 || i1 != i2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", c1, i1, c2, i2)
	}
	if !bytes.Equal(ch1, ch2) {
		t.Fatal("two identical runs produced different Chrome traces")
	}
}
