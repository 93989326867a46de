package tso

import (
	"testing"

	"asymfence/internal/mem"
	"asymfence/internal/workloads/litmus"
)

// conformSeed generates litmus seed s in conform's default shape: 2
// cores × 8 ops, every fourth seed 4 × 5, one shared line.
func conformSeed(seed uint64) litmus.GenResult {
	cores, ops := 2, 8
	if seed%4 == 0 {
		cores, ops = 4, 5
	}
	return litmus.Generate(mem.NewAllocator(0x1000), litmus.GenConfig{
		Seed: seed, NCores: cores, OpsPerCore: ops, SharedLines: 1,
	})
}

// BenchmarkEnumerate runs the closures conform enumerates for litmus
// seeds 1-100 in its default shape: one op is both semantics for every
// seed, and states/op is the interior states they visit together. It
// is the profiling target for the enumerator.
func BenchmarkEnumerate(b *testing.B) {
	var groups []litmus.GenResult
	for seed := uint64(1); seed <= 100; seed++ {
		groups = append(groups, conformSeed(seed))
	}
	b.ReportAllocs()
	b.ResetTimer()
	states := 0
	for i := 0; i < b.N; i++ {
		for _, g := range groups {
			for _, sem := range []Semantics{Strong, Relaxed} {
				res, err := Enumerate(g.Programs, g.Shared, Config{Semantics: sem})
				if err != nil || !res.Complete {
					b.Fatalf("%d cores: complete=%v err=%v", g.NCores, res.Complete, err)
				}
				states += res.States
			}
		}
	}
	b.ReportMetric(float64(states)/float64(b.N), "states/op")
}
