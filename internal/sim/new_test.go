package sim_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"asymfence/internal/check"
	"asymfence/internal/fence"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/workloads/litmus"
)

// conformMachine returns what conform's simulator sweep passes to
// sim.New for litmus seed seed: the programs in conform's default shape
// (2 cores × 8 ops, every fourth seed 4 × 5, one shared line), a store
// holding the litmus.InitWord image, and a config with the shared
// region marked in Privacy and a fresh invariant oracle.
func conformMachine(seed uint64) (sim.Config, litmus.GenResult, *mem.Store) {
	cores, ops := 2, 8
	if seed%4 == 0 {
		cores, ops = 4, 5
	}
	g := litmus.Generate(mem.NewAllocator(0x1000), litmus.GenConfig{
		Seed: seed, NCores: cores, OpsPerCore: ops, SharedLines: 1,
	})
	store := mem.NewStore()
	for i := 0; i < int(g.Shared.Size/mem.WordSize); i++ {
		store.StoreWord(g.Shared.Base+mem.Addr(i)*mem.WordSize, litmus.InitWord(i))
	}
	pv := mem.NewPrivacy()
	pv.MarkRegion(g.Shared)
	cfg := sim.Config{NCores: g.NCores, Design: fence.WPlus, Privacy: pv, Checker: check.New(check.All())}
	return cfg, g, store
}

// BenchmarkMachineNew measures building a machine. c2 and c4 time
// sim.New alone on the 2- and 4-core litmus machines conform builds 20
// of per seed (five designs × four schedules), and c2run and c4run time
// sim.New plus Run of the same machines, so bytes moved from the build
// into the run do not read as a saving; c64 times listMachine, a
// kernel-busy row's workload build and 64-core sim.New with its warm
// regions preloaded. B/op is what one build (or build and run)
// allocates.
func BenchmarkMachineNew(b *testing.B) {
	for _, tc := range []struct {
		name string
		seed uint64
		run  bool
	}{{"c2", 1, false}, {"c4", 4, false}, {"c2run", 1, true}, {"c4run", 4, true}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// An oracle binds to one machine, and a run writes the store.
				b.StopTimer()
				cfg, g, store := conformMachine(tc.seed)
				b.StartTimer()
				m, err := sim.New(cfg, g.Programs, store)
				if err != nil {
					b.Fatal(err)
				}
				if tc.run {
					if _, err := m.Run(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	b.Run("c64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			listMachine(b, fence.WPlus)
		}
	})
}

// TestSmallMachineFootprint bounds what conform's small machines
// allocate: sim.New of the seed-1 (2-core) machine under 48 KiB, and
// sim.New plus Run under 96 KiB for it and under 128 KiB for the seed-4
// (4-core) machine. Bytes are counted over the calls from
// runtime.MemStats on one P with the collector off (see
// TestBusyCoreStepIsAllocationFree). The programs are loop-free and
// short, so each core's ROB entries and windows are sized by program
// length, and each cache allocates its tags only when first filled.
func TestSmallMachineFootprint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		seed  uint64
		cores int
		run   bool
		limit uint64
	}{{1, 2, false, 48 << 10}, {1, 2, true, 96 << 10}, {4, 4, true, 128 << 10}} {
		cfg, g, store := conformMachine(tc.seed)
		if g.NCores != tc.cores {
			t.Fatalf("seed %d has %d cores, want %d", tc.seed, g.NCores, tc.cores)
		}
		what := "sim.New"
		if tc.run {
			what = "sim.New and Run"
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := sim.New(cfg, g.Programs, store)
		if err == nil && tc.run {
			_, err = m.Run()
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(m)
		n := after.TotalAlloc - before.TotalAlloc
		t.Logf("seed %d: %s of a %d-core conform machine allocated %d bytes", tc.seed, what, tc.cores, n)
		if n >= tc.limit {
			t.Errorf("seed %d: %s of a %d-core conform machine allocated %d bytes, want under %d", tc.seed, what, tc.cores, n, tc.limit)
		}
	}
}
