package sim_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/trace"
	"asymfence/internal/workloads/litmus"
)

// benchMachine builds the reference Bakery machine used to measure the
// tracing overhead of the cycle loop.
func benchMachine(b *testing.B, tr *trace.Tracer, interval int64) *sim.Machine {
	b.Helper()
	al := mem.NewAllocator(dataBase)
	progs, _ := litmus.Bakery(al, 4, 1000, []bool{true, true, true, true}, true)
	m, err := sim.New(sim.Config{
		NCores: 4, Design: fence.WPlus,
		Trace: tr, SampleInterval: interval,
	}, progs, mem.NewStore())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkStepTracingDisabled is the baseline cycle rate of an
// untraced machine, whose components emit into the flight recorder.
// Compare against BenchmarkStepTracingEnabled: the acceptance bar for
// the trace subsystem is that this benchmark stays within noise (< 2%)
// of the pre-trace simulator.
func BenchmarkStepTracingDisabled(b *testing.B) {
	m := benchMachine(b, nil, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// BenchmarkStepTracingEnabled measures the full-mask tracing cost
// (bounded ring so memory stays flat at large b.N).
func BenchmarkStepTracingEnabled(b *testing.B) {
	m := benchMachine(b, trace.New(trace.Options{MaxEvents: 1 << 16}), 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// TestQuiescedStepIsAllocationFree documents that the steady-state
// cycle loop — including every tracing call site, which writes the
// flight recorder's preallocated ring, and the nil interval sampler —
// performs no allocations. (A busy machine allocates only for lines
// and pages it touches for the first time, see TestBusyRowStepAllocs; a
// busy core alone allocates nothing, see
// TestBusyCoreStepIsAllocationFree. The trace package's
// TestRecordingEmitIsAllocationFree covers the Emit path under load.)
func TestQuiescedStepIsAllocationFree(t *testing.T) {
	al := mem.NewAllocator(dataBase)
	progs, _ := litmus.Bakery(al, 4, 2, []bool{true, true, true, true}, true)
	m, err := sim.New(sim.Config{NCores: 4, Design: fence.WPlus}, progs, mem.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, m.Step)
	if allocs != 0 {
		t.Fatalf("quiesced Step allocated %v per cycle, want 0", allocs)
	}
}

// TestBusyCoreStepIsAllocationFree: once warm, a core that keeps
// fetching, executing and retiring a load-use-store loop allocates
// nothing per cycle under any design. ROB entries come from the core's
// pool and every queue is a window into a fixed array. The count is
// taken from runtime.MemStats over the whole span, not from
// testing.AllocsPerRun, which rounds down and would miss an allocation
// made once every few hundred cycles. As AllocsPerRun does, the test
// runs on one P, and with the collector off: the count covers the whole
// process, and otherwise the Go runtime's own allocations land in it
// (a new OS thread started to run an idle P, goroutines a collection
// wakes).
func TestBusyCoreStepIsAllocationFree(t *testing.T) {
	b := isa.NewBuilder("busy")
	b.Li(1, int32(dataBase))
	b.Li(5, 1<<30)
	b.Label("loop")
	b.Ld(2, 1, 0)
	b.Add(3, 2, 2)
	b.AddI(5, 5, -1)
	b.St(3, 1, 4)
	b.Bne(5, isa.R0, "loop")
	b.Halt()
	p := b.MustBuild()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, d := range fence.AllDesigns {
		m, err := sim.New(sim.Config{NCores: 1, Design: d}, []*isa.Program{p}, mem.NewStore())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5_000; i++ {
			m.Step()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10_000; i++ {
			m.Step()
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%v: %d mallocs (%d bytes) over 10,000 busy cycles, want 0", d, n, after.TotalAlloc-before.TotalAlloc)
		}
		if m.Finished() || m.Core(0).Stats().RetiredInstrs < 10_000 {
			t.Fatalf("%v: the loop did not keep the core busy", d)
		}
	}
}

// TestBusyRowStepAllocs: a kernel-busy ustm:List row (64 cores, seed 1)
// allocates almost nothing per cycle once past its first 2,000 cycles.
// A directory transaction lives in its line, new lines come from a
// per-bank slab, a core's MSHRs are a fixed array, its fences are held
// by value and its undo log is pruned every cycle. What remains is lines
// and pages touched for the first time, and under Wee the GRT's fresh
// remote set for every deposit. Counted as in
// TestBusyCoreStepIsAllocationFree.
func TestBusyRowStepAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warm, counted = 2_000, 8_000
	for _, d := range fence.AllDesigns {
		limit := 0.5
		if d == fence.Wee {
			limit = 3
		}
		m := listMachine(t, d)
		for i := 0; i < warm; i++ {
			m.Step()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < counted; i++ {
			m.Step()
		}
		runtime.ReadMemStats(&after)
		perCycle := float64(after.Mallocs-before.Mallocs) / counted
		t.Logf("%v: %.2f mallocs (%.0f bytes) per cycle", d, perCycle, float64(after.TotalAlloc-before.TotalAlloc)/counted)
		if perCycle >= limit {
			t.Errorf("%v: %.2f mallocs per busy 64-core cycle, want under %g", d, perCycle, limit)
		}
	}
}
