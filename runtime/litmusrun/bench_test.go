package litmusrun

import (
	"testing"

	"asymfence/internal/mem"
	"asymfence/internal/workloads/litmus"
	asymruntime "asymfence/runtime"
)

// BenchmarkRun is conform's hardware sweep, one row per fence mode and
// conform program shape: c2 is litmus seed 1 (2 cores × 8 ops, the
// default shape) and c4 is seed 4 (4 cores × 5 ops, the shape of every
// fourth conform seed). One op is one Run of 128 iterations with the
// seeded yields on, at the benchmark's GOMAXPROCS (-cpu), and us/iter is
// the wall time per iteration. It is the sweep's profiling target.
func BenchmarkRun(b *testing.B) {
	const iters = 128
	for _, m := range testableModes() {
		for _, shape := range []struct {
			name       string
			seed       uint64
			cores, ops int
		}{{"c2", 1, 2, 8}, {"c4", 4, 4, 5}} {
			g := litmus.Generate(mem.NewAllocator(0x1000), litmus.GenConfig{
				Seed: shape.seed, NCores: shape.cores, OpsPerCore: shape.ops, SharedLines: 1,
			})
			b.Run(m.String()+"/"+shape.name, func(b *testing.B) {
				if err := asymruntime.Use(m); err != nil {
					b.Skipf("mode %v unavailable: %v", m, err)
				}
				defer func() { _ = asymruntime.Use(asymruntime.ModeAuto) }()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := Run(g.Programs, g.Shared, Config{Iterations: iters, Seed: uint64(i) + 1})
					if err != nil || res.Iterations != iters {
						b.Fatalf("%d iterations, err %v", res.Iterations, err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(iters*b.N), "us/iter")
			})
		}
	}
}
