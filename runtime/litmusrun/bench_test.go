package litmusrun

import (
	"testing"

	"asymfence/internal/mem"
	"asymfence/internal/workloads/litmus"
	asymruntime "asymfence/runtime"
)

// BenchmarkRun is conform's hardware sweep for litmus seed 1 (2 cores ×
// 8 ops): one op is one Run of 128 iterations with the yield and
// GOMAXPROCS jitter on, in each available fence mode, and us/iter is
// the wall time per iteration. It is the sweep's profiling target.
func BenchmarkRun(b *testing.B) {
	g := litmus.Generate(mem.NewAllocator(0x1000), litmus.GenConfig{Seed: 1, NCores: 2, OpsPerCore: 8, SharedLines: 1})
	const iters = 128
	for _, m := range testableModes() {
		b.Run(m.String(), func(b *testing.B) {
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
