package sim_test

import (
	"bytes"
	"testing"

	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/metrics"
	"asymfence/internal/sim"
	"asymfence/internal/workloads/litmus"
)

// runSBWithMetrics executes one SB litmus machine against reg.
func runSBWithMetrics(t *testing.T, reg *metrics.Registry) *sim.Result {
	t.Helper()
	al := mem.NewAllocator(dataBase)
	progs, _ := litmus.SB(al, litmus.Weak, litmus.Weak, 3)
	m, err := sim.New(sim.Config{
		NCores:  2,
		Design:  fence.Wee,
		Metrics: reg,
	}, progs[:], mem.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// machineTotals is what each machine.* run total must read after a run
// that ended in r, written out field by field.
func machineTotals(r *sim.Result) map[string]int64 {
	agg := r.Agg()
	return map[string]int64{
		"cycles":             r.Cycles,
		"fence.strong":       int64(agg.SFences),
		"fence.weak":         int64(agg.WFences),
		"fence.demoted":      int64(agg.DemotedWFences),
		"fence.stall_cycles": int64(agg.FenceStallCycles),
		"cpu.squashes":       int64(agg.Squashes),
		"wplus.recoveries":   int64(agg.Recoveries),
		"wb.bounced_writes":  int64(agg.BouncedWrites),
		"wb.bounce_retries":  int64(agg.BounceRetries),
		"dir.bounced_writes": int64(r.Dir.BouncedWrites),
		"dir.gets":           int64(r.Dir.GetSReqs),
		"dir.getm":           int64(r.Dir.GetMReqs),
		"noc.packets":        int64(r.NoC.Packets),
		"noc.bytes":          int64(r.NoC.Bytes),
	}
}

// checkTotals asserts that every machine.* run total in reg equals the
// Result field it reports, and returns the totals.
func checkTotals(t *testing.T, name string, reg *metrics.Registry, r *sim.Result) map[string]int64 {
	t.Helper()
	want := machineTotals(r)
	for k, v := range want {
		if got := reg.Scope("machine").Counter(k).Value(); got != v {
			t.Errorf("%s: machine.%s = %d, want %d", name, k, got, v)
		}
	}
	return want
}

// TestMachineMetricsPopulated asserts a run exports each of its machine
// counters into the configured registry. Between them the runs make every
// run total nonzero at least once (a recovery and bounces under W+, a
// strong fence under WS+, demotions under Wee), so a total wired to the
// wrong field cannot pass by reading another zero.
func TestMachineMetricsPopulated(t *testing.T) {
	runs := []struct {
		design fence.Design
		progs  func(al *mem.Allocator) []*isa.Program
	}{
		{fence.WPlus, func(al *mem.Allocator) []*isa.Program {
			p, _ := litmus.SB(al, litmus.Weak, litmus.Weak, 3)
			return p[:]
		}},
		{fence.WSPlus, func(al *mem.Allocator) []*isa.Program {
			p, _ := litmus.SBAsym(al, litmus.Weak, litmus.Strong, 6, 0)
			return p[:]
		}},
		{fence.Wee, func(al *mem.Allocator) []*isa.Program {
			p, _ := litmus.Bakery(al, 4, 3, []bool{true, true, true, true}, true)
			return p
		}},
	}
	nonzero := map[string]bool{}
	for _, rc := range runs {
		reg := metrics.NewRegistry()
		progs := padIdle(rc.progs(mem.NewAllocator(dataBase)), 4)
		m, err := sim.New(sim.Config{NCores: 4, Design: rc.design, Metrics: reg}, progs, mem.NewStore())
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%v: %v", rc.design, err)
		}
		for k, v := range checkTotals(t, rc.design.String(), reg, res) {
			nonzero[k] = nonzero[k] || v != 0
		}
		mx := reg.Scope("machine")
		if got := mx.Counter("runs").Value(); got != 1 {
			t.Errorf("%v: machine.runs = %d, want 1", rc.design, got)
		}
		if mx.Scope("noc").Gauge("inflight_peak").Value() <= 0 {
			t.Errorf("%v: machine.noc.inflight_peak never rose above zero", rc.design)
		}
		if mx.Scope("wb").Histogram("occupancy").Count() == 0 {
			t.Errorf("%v: machine.wb.occupancy saw no store retirements", rc.design)
		}
	}
	for k, ok := range nonzero {
		if !ok {
			t.Errorf("machine.%s read 0 on every run", k)
		}
	}
}

// TestMachineMetricsAcrossRunForSegments runs one machine in two RunFor
// segments against one registry: each segment exports only what it
// added, so every run total equals the final Result's field.
func TestMachineMetricsAcrossRunForSegments(t *testing.T) {
	al := mem.NewAllocator(dataBase)
	p, _ := litmus.SB(al, litmus.Weak, litmus.Weak, 3)
	reg := metrics.NewRegistry()
	m, err := sim.New(sim.Config{NCores: 4, Design: fence.WPlus, Metrics: reg}, padIdle(p[:], 4), mem.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	first := m.RunFor(300)
	checkTotals(t, "first segment", reg, first)
	final := m.RunFor(20_000)
	if !final.Finished {
		t.Fatalf("machine not finished after %d cycles", final.Cycles)
	}
	if first.Cycles >= final.Cycles || first.NoC.Packets >= final.NoC.Packets {
		t.Fatalf("the first segment (%d cycles, %d packets) is not a strict prefix of the run (%d, %d)",
			first.Cycles, first.NoC.Packets, final.Cycles, final.NoC.Packets)
	}
	checkTotals(t, "after both segments", reg, final)
	if got := reg.Scope("machine").Counter("runs").Value(); got != 2 {
		t.Errorf("machine.runs = %d, want 2", got)
	}
}

// TestMachineMetricsDeterministic asserts two identical runs render
// byte-identical snapshots, and that sharing one registry across runs
// doubles the counters exactly (merge-by-commutativity).
func TestMachineMetricsDeterministic(t *testing.T) {
	a, b := metrics.NewRegistry(), metrics.NewRegistry()
	runSBWithMetrics(t, a)
	runSBWithMetrics(t, b)
	if !bytes.Equal(a.JSON(), b.JSON()) {
		t.Fatalf("identical runs rendered different snapshots:\n%s\n---\n%s", a.JSON(), b.JSON())
	}
	shared := metrics.NewRegistry()
	runSBWithMetrics(t, shared)
	runSBWithMetrics(t, shared)
	one := a.Scope("machine").Counter("cycles").Value()
	if got := shared.Scope("machine").Counter("cycles").Value(); got != 2*one {
		t.Errorf("shared-registry cycles = %d, want %d (exactly two runs)", got, 2*one)
	}
	if got := shared.Scope("machine").Counter("runs").Value(); got != 2 {
		t.Errorf("shared-registry runs = %d, want 2", got)
	}
}

// TestMetricsObservationOnly verifies metrics change nothing: a run
// with a registry attached must produce the same cycle count as one
// without.
func TestMetricsObservationOnly(t *testing.T) {
	with := runSBWithMetrics(t, metrics.NewRegistry())
	without := runSBWithMetrics(t, nil)
	if with.Cycles != without.Cycles {
		t.Fatalf("metrics changed the run: %d cycles with, %d without", with.Cycles, without.Cycles)
	}
}
