package sim_test

import (
	"fmt"
	"testing"

	"asymfence/internal/fence"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/workloads/litmus"
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

// BenchmarkCycleKernel measures Machine.Step under each fence design on
// a busy machine of 4 cores and of 64, the kernel-busy benchmark
// workload's size (sub-benchmarks <design>/c<cores>): ns/op is
// nanoseconds per simulated cycle, so cycles/sec = 1e9 / (ns/op). This is
// the per-subsystem view of the kernel-busy/kernel-quiescent benchmark
// workloads in bench/ (see PERFORMANCE.md); steady state should be near
// allocation-free.
func BenchmarkCycleKernel(b *testing.B) {
	for _, d := range fence.AllDesigns {
		for _, n := range []int{4, 64} {
			b.Run(fmt.Sprintf("%v/c%d", d, n), func(b *testing.B) {
				m := kernelMachine(b, d, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Step()
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
			})
		}
	}
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
