// Benchmarks regenerating the paper's evaluation artifacts (one per
// figure/table; see DESIGN.md §5). Each reports the paper-comparable
// quantities as custom metrics: speedups over S+, fence-stall fractions,
// and characterization rates. Absolute wall time of the benchmark itself
// is the cost of simulation, not a paper quantity.
//
// Run a single one with e.g.:
//
//	go test -bench=BenchmarkFig9 -benchtime=1x
package asymfence_test

import (
	"context"
	"fmt"
	"testing"

	"asymfence/internal/experiments"
	"asymfence/internal/fence"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/stats"
	"asymfence/internal/workloads/stm"
)

// eng runs the artifacts on a default engine: GOMAXPROCS workers and
// the shared measurement cache.
var (
	eng = experiments.NewEngine(experiments.RunConfig{})
	ctx = context.Background()
)

// benchScale keeps each regeneration to a few seconds; asymsim runs the
// full size.
const (
	benchScale   = 0.25
	benchHorizon = 40_000
)

func BenchmarkFig8CilkApps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _, err := eng.Fig8(ctx, 8, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.MeanExecRatio(fence.WSPlus), "WS+_time_vs_S+")
		b.ReportMetric(g.MeanExecRatio(fence.WPlus), "W+_time_vs_S+")
		b.ReportMetric(g.MeanExecRatio(fence.Wee), "Wee_time_vs_S+")
		b.ReportMetric(g.MeanFenceStall(fence.SPlus), "S+_fence_stall_frac")
	}
}

func BenchmarkFig9USTM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _, err := eng.Fig9(ctx, 8, benchHorizon)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.MeanThroughputRatio(fence.WSPlus), "WS+_throughput_vs_S+")
		b.ReportMetric(g.MeanThroughputRatio(fence.WPlus), "W+_throughput_vs_S+")
		b.ReportMetric(g.MeanThroughputRatio(fence.Wee), "Wee_throughput_vs_S+")
	}
}

func BenchmarkFig10USTMBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _, err := eng.Fig10(ctx, 8, benchHorizon)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.MeanFenceStall(fence.SPlus), "S+_fence_stall_frac")
		b.ReportMetric(g.MeanFenceStall(fence.WSPlus), "WS+_fence_stall_frac")
		b.ReportMetric(g.MeanFenceStall(fence.WPlus), "W+_fence_stall_frac")
	}
}

func BenchmarkFig11STAMP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _, err := eng.Fig11(ctx, 8, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.MeanExecRatio(fence.WSPlus), "WS+_time_vs_S+")
		b.ReportMetric(g.MeanExecRatio(fence.WPlus), "W+_time_vs_S+")
		b.ReportMetric(g.MeanExecRatio(fence.Wee), "Wee_time_vs_S+")
	}
}

func BenchmarkFig12Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := eng.Fig12(ctx, benchScale, benchHorizon, []int{4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		// Report the spread between the smallest and largest core count
		// per design: flat (≈0) means the design scales (the paper's
		// conclusion).
		spread := map[fence.Design][2]float64{}
		for _, r := range rows {
			if r.Group != "CilkApps" {
				continue
			}
			s := spread[r.Design]
			if r.Cores == 4 {
				s[0] = r.StallRatio
			}
			if r.Cores == 16 {
				s[1] = r.StallRatio
			}
			spread[r.Design] = s
		}
		b.ReportMetric(spread[fence.WSPlus][1]-spread[fence.WSPlus][0], "WS+_cilk_stall_ratio_drift")
		b.ReportMetric(spread[fence.WPlus][1]-spread[fence.WPlus][0], "W+_cilk_stall_ratio_drift")
	}
}

func BenchmarkTable4Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eng.Table4(ctx, 8, benchScale, benchHorizon); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeadlineAverages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		speedups, _, err := eng.Headline(ctx, 8, benchScale, benchHorizon)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(speedups[fence.WSPlus], "WS+_mean_improvement")
		b.ReportMetric(speedups[fence.WPlus], "W+_mean_improvement")
		b.ReportMetric(speedups[fence.Wee], "Wee_mean_improvement")
	}
}

// runUSTMMachine runs one ustm benchmark with the ablation knobs of
// DESIGN.md §6 set: the Bypass Set size and the W+ timeout (zero keeps
// a knob's default).
func runUSTMMachine(b *testing.B, design fence.Design, bsCapacity int, wplusTimeout, horizon int64) (*sim.Result, *stats.Core) {
	b.Helper()
	p, _ := stm.USTMByName("ReadWriteN")
	p.Iterations = 0
	al := mem.NewAllocator(0x1000)
	store := mem.NewStore()
	privacy := mem.NewPrivacy()
	wl := stm.Build(p, 8, stm.AssignmentFor(design), 7, al, store, privacy)
	m, err := sim.New(sim.Config{
		NCores: 8, Design: design, BSCapacity: bsCapacity, WPlusTimeout: wplusTimeout, Privacy: privacy,
		WarmRegions: wl.WarmRegions, MaxCycles: horizon + 1,
	}, wl.Progs, store)
	if err != nil {
		b.Fatal(err)
	}
	res := m.RunFor(horizon)
	return res, res.Agg()
}

// BenchmarkAblationWPlusTimeout sweeps the W+ deadlock timeout (DESIGN.md
// §6): shorter timeouts break genuine deadlocks faster but risk rolling
// back transient bouncing; longer ones stretch every genuine deadlock.
func BenchmarkAblationWPlusTimeout(b *testing.B) {
	for _, timeout := range []int64{75, 150, 600} {
		b.Run(fmt.Sprintf("timeout-%d", timeout), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, agg := runUSTMMachine(b, fence.WPlus, 0, timeout, benchHorizon)
				b.ReportMetric(float64(agg.Events[stats.EvCommit]), "commits")
				b.ReportMetric(float64(agg.Recoveries), "recoveries")
			}
		})
	}
}

// BenchmarkAblationBSCapacity sweeps the Bypass Set size (Table 2 uses
// 32): a small BS throttles how far weak fences can run ahead.
func BenchmarkAblationBSCapacity(b *testing.B) {
	for _, capy := range []int{4, 8, 32} {
		b.Run(fmt.Sprintf("bs-%d", capy), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, agg := runUSTMMachine(b, fence.WPlus, capy, 0, benchHorizon)
				b.ReportMetric(float64(agg.Events[stats.EvCommit]), "commits")
			}
		})
	}
}
