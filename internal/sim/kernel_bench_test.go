package sim_test

import (
	"fmt"
	"testing"

	"asymfence/internal/fence"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/stats"
	"asymfence/internal/workloads/cilk"
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
func listMachine(tb testing.TB, d fence.Design) *sim.Machine {
	tb.Helper()
	p, _ := stm.USTMByName("List")
	p.Iterations = 0
	al, store, pv := mem.NewAllocator(dataBase), mem.NewStore(), mem.NewPrivacy()
	wl := stm.Build(p, 64, stm.AssignmentFor(d), 1, al, store, pv)
	m, err := sim.New(sim.Config{NCores: 64, Design: d, Privacy: pv, WarmRegions: wl.WarmRegions}, wl.Progs, store)
	if err != nil {
		tb.Fatal(err)
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

// cilkMachine builds the 64-core machine of a kernel-quiescent row:
// cilk app under design d with tasks tasks per worker, seed 1, on the
// machine cfg describes (cfg's core count, design, privacy and warm
// regions are filled in). It also returns the task count a finished
// run must have executed.
func cilkMachine(tb testing.TB, app string, d fence.Design, tasks int, cfg sim.Config) (*sim.Machine, int) {
	tb.Helper()
	p, _ := cilk.AppByName(app)
	p.TasksPerWorker = tasks
	al, store, pv := mem.NewAllocator(dataBase), mem.NewStore(), mem.NewPrivacy()
	wl := cilk.Build(p, 64, cilk.AssignmentFor(d), 1, al, store, pv)
	cfg.NCores, cfg.Design, cfg.Privacy, cfg.WarmRegions = 64, d, pv, wl.WarmRegions
	m, err := sim.New(cfg, wl.Progs, store)
	if err != nil {
		tb.Fatal(err)
	}
	return m, wl.TotalTasks
}

// BenchmarkKernelQuiescent builds and runs to completion the ten rows
// of the kernel-quiescent benchmark workload (<design>/<app> for
// cilk:bucket and cilk:fib): one op is one row, machine build included,
// as the workload times it. It is how PERFORMANCE.md profiles
// kernel-quiescent; -benchtime 1x -count 2 is two passes over the rows.
func BenchmarkKernelQuiescent(b *testing.B) {
	for _, app := range []string{"bucket", "fib"} {
		p, _ := cilk.AppByName(app)
		tasks := max(p.TasksPerWorker/4, 4) // the workload's scale, 0.25
		for _, d := range fence.AllDesigns {
			b.Run(fmt.Sprintf("%v/%s", d, app), func(b *testing.B) {
				b.ReportAllocs()
				var cycles int64
				for i := 0; i < b.N; i++ {
					m, total := cilkMachine(b, app, d, tasks, sim.Config{MaxCycles: 200_000_000})
					res, err := m.Run()
					if err != nil {
						b.Fatal(err)
					}
					if got := res.Agg().Events[stats.EvTask]; got != uint64(total) {
						b.Fatalf("ran %d of %d tasks", got, total)
					}
					cycles += res.Cycles
				}
				b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
			})
		}
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
