package experiments

import (
	"context"
	"fmt"

	"asymfence/internal/fence"
	"asymfence/internal/noc"
)

// Quick/full experiment parameters. The paper simulates an 8-core mesh by
// default (Table 2).
const (
	DefaultCores = 8
	// USTMHorizon is the fixed throughput-run length (cycles).
	USTMHorizon = 60_000
)

// Fig8 reproduces Figure 8: execution time of CilkApps under S+, WS+, W+
// and Wee, normalized to S+, with the busy / other-stall / fence-stall
// breakdown. Paper reference: under S+ the group spends ≈13% of its time
// on fence stall; WS+/W+/Wee cut the remaining stall to 2-4% and reduce
// execution time by ≈9% on average.
func (e *Engine) Fig8(ctx context.Context, ncores int, scale Scale) (*GroupRun, *Table, error) {
	g, err := e.RunGroup(ctx, "cilk", ncores, scale, 0)
	if err != nil {
		return nil, nil, err
	}
	t := execTimeTable("Fig. 8: CilkApps execution time (normalized to S+)", g)
	return g, t, nil
}

// Fig9 reproduces Figure 9: transactional throughput of the ustm
// microbenchmarks normalized to S+. Paper reference: WS+ +38%, W+ +58%,
// Wee +14% over S+ on average.
func (e *Engine) Fig9(ctx context.Context, ncores int, horizon int64) (*GroupRun, *Table, error) {
	g, err := e.RunGroup(ctx, "ustm", ncores, 0, horizon)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:   "Fig. 9: ustm transactional throughput (normalized to S+; higher is better)",
		Headers: []string{"benchmark", "S+", "WS+", "W+", "Wee"},
		Note:    "paper averages: WS+ 1.38x, W+ 1.58x, Wee 1.14x",
	}
	for _, app := range g.Apps {
		base := g.ByApp[app][fence.SPlus].Throughput()
		row := []string{app}
		for _, d := range Designs {
			row = append(row, F(g.ByApp[app][d].Throughput()/base))
		}
		t.AddRow(row...)
	}
	avg := []string{"AVG"}
	for _, d := range Designs {
		avg = append(avg, F(g.MeanThroughputRatio(d)))
	}
	t.AddRow(avg...)
	return g, t, nil
}

// Fig10 reproduces Figure 10: per-transaction breakdown of processor
// cycles for ustm, normalized to S+. Paper reference: S+ spends ≈54% of
// its time on fence stall; WS+ and W+ eliminate half and two thirds of it,
// taking 24% and 35% fewer cycles per transaction; Wee only 11% fewer.
// Its runs are identical to Fig9's, so with a shared cache they are free.
func (e *Engine) Fig10(ctx context.Context, ncores int, horizon int64) (*GroupRun, *Table, error) {
	g, err := e.RunGroup(ctx, "ustm", ncores, 0, horizon)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:   "Fig. 10: ustm cycles per transaction (normalized to S+, with breakdown)",
		Headers: []string{"benchmark", "design", "cyc/txn vs S+", "busy", "other stall", "fence stall"},
		Note:    "paper: S+ fence stall ≈54%; WS+ −24% and W+ −35% cycles/txn; Wee −11%",
	}
	for _, app := range g.Apps {
		base := g.ByApp[app][fence.SPlus].CyclesPerTxn()
		for _, d := range Designs {
			m := g.ByApp[app][d]
			t.AddRow(app, d.String(), F(m.CyclesPerTxn()/base), Pct(m.Busy), Pct(m.OtherStall), Pct(m.FenceStall))
		}
	}
	return g, t, nil
}

// Fig11 reproduces Figure 11: execution time of the STAMP applications.
// Paper reference: WS+, W+ and Wee reduce mean execution time by 7%, 19%
// and 11%; intruder (write-heavy) gains far more from W+ than from WS+;
// labyrinth barely moves.
func (e *Engine) Fig11(ctx context.Context, ncores int, scale Scale) (*GroupRun, *Table, error) {
	g, err := e.RunGroup(ctx, "stamp", ncores, scale, 0)
	if err != nil {
		return nil, nil, err
	}
	t := execTimeTable("Fig. 11: STAMP execution time (normalized to S+)", g)
	t.Note = "paper averages: WS+ 0.93x, W+ 0.81x, Wee 0.89x"
	return g, t, nil
}

func execTimeTable(title string, g *GroupRun) *Table {
	t := &Table{
		Title:   title,
		Headers: []string{"app", "design", "time vs S+", "busy", "other stall", "fence stall"},
	}
	for _, app := range g.Apps {
		base := g.ByApp[app][fence.SPlus]
		for _, d := range Designs {
			m := g.ByApp[app][d]
			t.AddRow(app, d.String(), F(float64(m.Cycles)/float64(base.Cycles)),
				Pct(m.Busy), Pct(m.OtherStall), Pct(m.FenceStall))
		}
	}
	for _, d := range Designs {
		t.AddRow("AVG", d.String(), F(g.MeanExecRatio(d)), "", "", Pct(g.MeanFenceStall(d)))
	}
	return t
}

// Fig12Row is one point of the scalability study.
type Fig12Row struct {
	Group  string
	Design fence.Design
	Cores  int
	// StallRatio is fence-stall(design) / fence-stall(S+) at this core
	// count (Fig. 12's y axis).
	StallRatio float64
}

// Fig12 reproduces Figure 12: for each workload group and aggressive
// design, the ratio of its total fence stall time to S+'s, across the
// given core counts (empty: DefaultCoreCounts). Paper reference: the
// ratios stay flat or rise only modestly with core count — the designs'
// effectiveness scales. All (group, core count) simulations are
// submitted as one flat batch; the default 8-core column is shared with
// Figs. 8-11 through the measurement cache.
func (e *Engine) Fig12(ctx context.Context, scale Scale, horizon int64, coreCounts []int) ([]Fig12Row, *Table, error) {
	if len(coreCounts) == 0 {
		coreCounts = DefaultCoreCounts
	}
	aggressive := []fence.Design{fence.WSPlus, fence.WPlus, fence.Wee}
	t := &Table{
		Title:   "Fig. 12: scalability of fence-stall reduction (stall vs S+, per core count)",
		Headers: append([]string{"group", "design"}, coresHeaders(coreCounts)...),
		Note:    "paper: bars stay flat or rise modestly from 4 to 32 cores",
	}

	runs, err := e.runGroups(ctx, coreCounts, scale, horizon)
	if err != nil {
		return nil, nil, err
	}
	var rows []Fig12Row
	for i, grp := range groups {
		for _, d := range aggressive {
			cells := []string{grp.label, d.String()}
			for j, n := range coreCounts {
				g := runs[i][j]
				var stall, base uint64
				for _, app := range g.Apps {
					stall += g.ByApp[app][d].Agg.FenceStallCycles
					base += g.ByApp[app][fence.SPlus].Agg.FenceStallCycles
				}
				ratio := 1.0
				if base > 0 {
					ratio = float64(stall) / float64(base)
				}
				rows = append(rows, Fig12Row{Group: grp.label, Design: d, Cores: n, StallRatio: ratio})
				cells = append(cells, Pct(ratio))
			}
			t.AddRow(cells...)
		}
	}
	return rows, t, nil
}

func coresHeaders(cc []int) []string {
	out := make([]string, len(cc))
	for i, n := range cc {
		out[i] = fmt.Sprintf("P%d", n)
	}
	return out
}

// Table4 reproduces Table 4: the characterization of the designs at 8
// cores — fence frequencies per 1000 instructions, Bypass Set occupancy,
// write bouncing, retries, traffic increase, W+ recoveries, and Wee
// demotions. Its simulations are the same ones Figs. 8-11 run, so with
// a shared cache the whole table is assembled from hits.
func (e *Engine) Table4(ctx context.Context, ncores int, scale Scale, horizon int64) (*Table, error) {
	t := &Table{
		Title: "Table 4: characterization of Asymmetric fences (8 cores)",
		Headers: []string{
			"workload",
			"S+ sf/1ki",
			"WS+ sf/1ki", "WS+ wf/1ki", "WS+ lines/BS", "WS+ bounce/wf", "WS+ retry/wr", "WS+ traffic",
			"W+ wf/1ki", "W+ recov/1k wf", "W+ traffic",
			"Wee sf/1ki", "Wee wf/1ki", "Wee lines/BS",
		},
		Note: "paper: fences ≈1/1ki (CilkApps, STAMP) and ≈5.7/1ki (ustm); BS 3-5 lines; low bounce/retry; negligible traffic increase; W+ recoveries noticeable only for ustm; Wee demotes ≈half of ustm and ≈a third of STAMP fences, ≈none of CilkApps",
	}

	runs, err := e.runGroups(ctx, []int{ncores}, scale, horizon)
	if err != nil {
		return nil, err
	}
	for _, gr := range runs {
		g := gr[0]
		row := []string{g.Group}
		agg := func(d fence.Design) (sf1k, wf1k, linesBS, bouncePerWF, retryPerWr, trafficPct, recovPerKwf float64) {
			var sf, wf, instr, bounced, retries, recov, bsSum, bsN uint64
			var bytes, retryBytes uint64
			for _, app := range g.Apps {
				m := g.ByApp[app][d]
				sf += m.Agg.SFences
				wf += m.Agg.WFences
				instr += m.Agg.RetiredInstrs
				bounced += m.Agg.BouncedWrites
				retries += m.Agg.BounceRetries
				recov += m.Agg.Recoveries
				bsSum += m.Agg.BSLinesSum
				bsN += m.Agg.BSLinesSamples
				bytes += m.NoC.Bytes
				retryBytes += m.NoC.BytesIn(noc.CatRetry)
			}
			fi := float64(instr)
			if fi == 0 {
				fi = 1
			}
			sf1k = 1000 * float64(sf) / fi
			wf1k = 1000 * float64(wf) / fi
			if bsN > 0 {
				linesBS = float64(bsSum) / float64(bsN)
			}
			if wf > 0 {
				bouncePerWF = float64(bounced) / float64(wf)
				recovPerKwf = 1000 * float64(recov) / float64(wf)
			}
			if bounced > 0 {
				retryPerWr = float64(retries) / float64(bounced)
			}
			if bytes > 0 {
				trafficPct = 100 * float64(retryBytes) / float64(bytes)
			}
			return
		}
		sS, _, _, _, _, _, _ := agg(fence.SPlus)
		wsS, wsW, wsBS, wsB, wsR, wsT, _ := agg(fence.WSPlus)
		_, wW, _, _, _, wT, wRec := agg(fence.WPlus)
		weeS, weeW, weeBS, _, _, _, _ := agg(fence.Wee)
		row = append(row,
			F(sS),
			F(wsS), F(wsW), F(wsBS), fmt.Sprintf("%.3f", wsB), F(wsR), fmt.Sprintf("%.2f%%", wsT),
			F(wW), F(wRec), fmt.Sprintf("%.2f%%", wT),
			F(weeS), F(weeW), F(weeBS),
		)
		t.AddRow(row...)
	}
	return t, nil
}

// Headline computes the paper's §1/§9 summary: mean speedups over S+
// across all three workload groups, submitted as one flat batch (all of
// it shared with Figs. 8/9/11 through the cache). Paper reference:
// WS+ 13%, W+ 21% (and Wee 10%).
func (e *Engine) Headline(ctx context.Context, ncores int, scale Scale, horizon int64) (map[fence.Design]float64, *Table, error) {
	runs, err := e.runGroups(ctx, []int{ncores}, scale, horizon)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:   "Headline: mean improvement over S+ (execution time reduction / throughput gain)",
		Headers: []string{"group", "WS+", "W+", "Wee"},
		Note:    "paper: WS+ 13% and W+ 21% average speedups; Wee 10%",
	}
	speedups := map[fence.Design]float64{}
	aggr := []fence.Design{fence.WSPlus, fence.WPlus, fence.Wee}
	for i := range groups {
		g := runs[i][0]
		row := []string{g.Group}
		for _, d := range aggr {
			imp := 1 - g.MeanExecRatio(d)
			if groups[i].throughput {
				// Throughput gain converted to equivalent time reduction.
				imp = 1 - 1/g.MeanThroughputRatio(d)
			}
			speedups[d] += imp
			row = append(row, Pct(imp))
		}
		t.AddRow(row...)
	}
	row := []string{"MEAN"}
	for _, d := range aggr {
		speedups[d] /= float64(len(groups))
		row = append(row, Pct(speedups[d]))
	}
	t.AddRow(row...)
	return speedups, t, nil
}
