package experiments_test

import (
	"context"
	"strings"
	"testing"

	"asymfence/internal/experiments"
	"asymfence/internal/fence"
)

// eng runs the artifacts on a default engine: GOMAXPROCS workers and
// the shared measurement cache.
var (
	eng = experiments.NewEngine(experiments.RunConfig{})
	ctx = context.Background()
)

// These tests assert the *directions* the paper reports, at reduced scale
// so the suite stays fast; asymsim runs the full sizes.

func TestFig8Directions(t *testing.T) {
	g, tab, err := eng.Fig8(ctx, 8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if s := g.MeanFenceStall(fence.SPlus); s < 0.08 || s > 0.30 {
		t.Errorf("S+ CilkApps fence-stall fraction %.2f outside the paper's band (≈0.13)", s)
	}
	for _, d := range []fence.Design{fence.WSPlus, fence.WPlus, fence.Wee} {
		r := g.MeanExecRatio(d)
		if r >= 1.0 {
			t.Errorf("%v does not speed up CilkApps (ratio %.2f)", d, r)
		}
		if s := g.MeanFenceStall(d); s > 0.05 {
			t.Errorf("%v leaves %.1f%% fence stall; paper: 2-4%%", d, 100*s)
		}
	}
	// The three aggressive designs perform nearly identically on CilkApps
	// (paper: "WS+, W+ and Wee perform similarly").
	ws, w := g.MeanExecRatio(fence.WSPlus), g.MeanExecRatio(fence.WPlus)
	if diff := ws - w; diff < -0.05 || diff > 0.05 {
		t.Errorf("WS+ (%.2f) and W+ (%.2f) diverge on CilkApps", ws, w)
	}
	if !strings.Contains(tab.String(), "fib") {
		t.Error("table missing apps")
	}
}

func TestFig9Directions(t *testing.T) {
	g, _, err := eng.Fig9(ctx, 8, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	ws := g.MeanThroughputRatio(fence.WSPlus)
	w := g.MeanThroughputRatio(fence.WPlus)
	wee := g.MeanThroughputRatio(fence.Wee)
	if !(w > ws && ws > 1.0) {
		t.Errorf("ustm ordering broken: W+ %.2f, WS+ %.2f (paper: 1.58 > 1.38 > 1)", w, ws)
	}
	if wee > ws {
		t.Errorf("Wee %.2f should trail WS+ %.2f on ustm (demotions)", wee, ws)
	}
}

func TestFig11Directions(t *testing.T) {
	g, _, err := eng.Fig11(ctx, 8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	w := g.MeanExecRatio(fence.WPlus)
	ws := g.MeanExecRatio(fence.WSPlus)
	if w >= 1.0 {
		t.Errorf("W+ does not speed up STAMP (ratio %.2f; paper 0.81)", w)
	}
	if w > ws+0.02 {
		t.Errorf("W+ (%.2f) should beat WS+ (%.2f) on STAMP", w, ws)
	}
}

func TestFig12StallRatiosStayFlat(t *testing.T) {
	rows, _, err := eng.Fig12(ctx, 0.15, 20_000, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's conclusion: effectiveness does not degrade with core
	// count. Allow generous noise at this tiny scale.
	byKey := map[string]map[int]float64{}
	for _, r := range rows {
		k := r.Group + "/" + r.Design.String()
		if byKey[k] == nil {
			byKey[k] = map[int]float64{}
		}
		byKey[k][r.Cores] = r.StallRatio
	}
	for k, v := range byKey {
		if strings.HasPrefix(k, "CilkApps/") {
			if v[16] > v[4]+0.25 {
				t.Errorf("%s: stall ratio rises from %.2f (4 cores) to %.2f (16 cores)", k, v[4], v[16])
			}
		}
	}
}

func TestTable4Shape(t *testing.T) {
	tab, err := eng.Table4(ctx, 8, 0.15, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	for _, row := range []string{"CilkApps", "ustm", "STAMP"} {
		if !strings.Contains(s, row) {
			t.Errorf("Table 4 missing %s row", row)
		}
	}
}

func TestHeadlineAggregates(t *testing.T) {
	speedups, _, err := eng.Headline(ctx, 8, 0.15, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if speedups[fence.WPlus] <= speedups[fence.WSPlus] {
		t.Errorf("headline: W+ (%.2f) should exceed WS+ (%.2f); paper 21%% vs 13%%",
			speedups[fence.WPlus], speedups[fence.WSPlus])
	}
	if speedups[fence.WSPlus] <= 0 {
		t.Errorf("WS+ shows no overall improvement: %.2f", speedups[fence.WSPlus])
	}
}
