package sim_test

import (
	"fmt"
	"testing"

	"asymfence/internal/fence"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/workloads/litmus"
	"asymfence/internal/workloads/stm"
)

// kernelMachine builds a long-running contended machine (Bakery lock
// handoffs keep all cores, directories and the mesh active) for
// measuring the cycle kernel under one fence design.
func kernelMachine(b *testing.B, d fence.Design, ncores int) *sim.Machine {
	b.Helper()
	al := mem.NewAllocator(dataBase)
	weak := make([]bool, ncores)
	for i := range weak {
		weak[i] = true
	}
	progs, _ := litmus.Bakery(al, ncores, 1<<20, weak, true)
	m, err := sim.New(sim.Config{NCores: ncores, Design: d}, progs, mem.NewStore())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// listMachine builds the 64-core ustm:List machine a kernel-busy row
// runs (seed 1), with no iteration limit.
func listMachine(b *testing.B, d fence.Design) *sim.Machine {
	b.Helper()
	p, _ := stm.USTMByName("List")
	p.Iterations = 0
	al, store, pv := mem.NewAllocator(dataBase), mem.NewStore(), mem.NewPrivacy()
	wl := stm.Build(p, 64, stm.AssignmentFor(d), 1, al, store, pv)
	m, err := sim.New(sim.Config{NCores: 64, Design: d, Privacy: pv, WarmRegions: wl.WarmRegions}, wl.Progs, store)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkCycleKernel measures Machine.Step under each fence design on
// a busy Bakery machine of 4 cores and of 64 (sub-benchmarks
// <design>/c<cores>), and on the 64-core ustm:List machine of a
// kernel-busy row (<design>/List), from its first cycle: ns/op is
// nanoseconds per simulated cycle, so cycles/sec = 1e9 / (ns/op). This is
// the per-subsystem view of the kernel-busy/kernel-quiescent benchmark
// workloads in bench/, and the List cases are how PERFORMANCE.md
// profiles kernel-busy; steady state should be near allocation-free.
func BenchmarkCycleKernel(b *testing.B) {
	for _, d := range fence.AllDesigns {
		for _, n := range []int{4, 64} {
			b.Run(fmt.Sprintf("%v/c%d", d, n), func(b *testing.B) {
				stepKernel(b, kernelMachine(b, d, n))
			})
		}
		b.Run(fmt.Sprintf("%v/List", d), func(b *testing.B) {
			stepKernel(b, listMachine(b, d))
		})
	}
}

func stepKernel(b *testing.B, m *sim.Machine) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
}

// BenchmarkRunQuiesced measures full Run throughput on a workload with
// long quiet phases, comparing the pure cycle-by-cycle loop against the
// quiescence-aware loop that fast-forwards across them. The workload is
// a sparse handoff chain: each core mostly sleeps waiting for a flag or
// a Work burst, which is where idle skipping pays.
func BenchmarkRunQuiesced(b *testing.B) {
	for _, pure := range []bool{true, false} {
		name := "fastforward"
		if pure {
			name = "purestepping"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := sim.New(
					sim.Config{NCores: 4, Design: fence.WPlus, PureStepping: pure},
					quiesceProgs(), mem.NewStore())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
