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
// of per seed (five designs × four schedules); c64 times listMachine, a
// kernel-busy row's workload build and 64-core sim.New with its warm
// regions preloaded. B/op is what one build allocates.
func BenchmarkMachineNew(b *testing.B) {
	for _, tc := range []struct {
		name string
		seed uint64
	}{{"c2", 1}, {"c4", 4}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg, g, store := conformMachine(tc.seed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg.Checker = check.New(check.All()) // an oracle binds to one machine
				b.StartTimer()
				if _, err := sim.New(cfg, g.Programs, store); err != nil {
					b.Fatal(err)
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

// TestSmallMachineFootprint: sim.New of conform's 2-core machine
// allocates under 128 KiB, counted over the call from runtime.MemStats
// on one P with the collector off (see TestBusyCoreStepIsAllocationFree).
// Its two L1s and two L2 banks are 40 KiB of packed tags.
func TestSmallMachineFootprint(t *testing.T) {
	cfg, g, store := conformMachine(1)
	if g.NCores != 2 {
		t.Fatalf("seed 1 has %d cores, want 2", g.NCores)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := sim.New(cfg, g.Programs, store)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(m)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 128<<10 {
		t.Errorf("sim.New of a 2-core conform machine allocated %d bytes, want under %d", n, 128<<10)
	}
}
