package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
	"time"
)

// update regenerates testdata/golden.json from the current program
// instead of comparing against it:
//
//	go test -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden.json")

const goldenPath = "testdata/golden.json"

// TestGolden recomputes every pinned reference at the benchmark's own
// configuration for seed 1 (the suite's tables, every kernel row's
// result digest, the conform report) and compares them with
// testdata/golden.json, or rewrites it under -update.
func TestGolden(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("recomputes the references at full size, about 30 s")
	}
	seen := map[string]string{}
	for _, name := range []string{"suite", "kernel-busy", "kernel-quiescent", "conform"} {
		w, _ := lookupWorkload(name)
		r := newRun(context.Background(), 1, 0, t.TempDir(), false)
		if *update {
			r.refs = nil
		}
		r.execute(w.plan(r))
		if r.failed != 0 {
			t.Fatalf("%s: %d of %d operations failed", name, r.failed, r.attempted)
		}
		for k, v := range r.seen {
			seen[k] = v
		}
	}
	if *update {
		data, err := json.MarshalIndent(seen, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d references to %s", len(seen), goldenPath)
		return
	}
	for k, want := range goldens {
		if got, ok := seen[k]; !ok {
			t.Errorf("%s: pinned but not computed by the benchmark", k)
		} else if got != want {
			t.Errorf("%s: %s, pinned %s", k, got, want)
		}
	}
	for k := range seen {
		if _, ok := goldens[k]; !ok {
			t.Errorf("%s: computed but not pinned (regenerate with -update)", k)
		}
	}
}

func mustSpec(t *testing.T) *spec {
	t.Helper()
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsReportDeclaredMetrics runs every workload with tiny
// constants, untraced and traced, and checks that its output line names
// every metric BENCHMARK.json declares for that mode exactly once, with
// the declared unit, and nothing else.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	spec := mustSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(workloadNames(), " "); got != strings.Join(names, " ") {
		t.Fatalf("workloads %q, BENCHMARK.json declares %q", got, names)
	}

	tiny := map[string]func(r *run) plan{
		"suite": func(r *run) plan {
			return suitePlan(r, suiteConfig{Cores: 4, Scale: 0.01, Horizon: 2_000, CoreCounts: []int{4}, Jobs: 2})
		},
		"kernel-busy": func(r *run) plan {
			return kernelPlan(r, kernelConfig{Cores: 4, Horizon: 2_000, Scale: 0.01}, busyRows)
		},
		"kernel-quiescent": func(r *run) plan {
			return kernelPlan(r, kernelConfig{Cores: 4, Horizon: 2_000, Scale: 0.01}, quiescentRows)
		},
		"conform": func(r *run) plan { return conformPlan(r, conformConfig{RefSeeds: 4, SetupSeeds: 1}) },
		"silicon-deque": func(r *run) plan {
			return siliconPlan(r, tinySilicon, dequePort)
		},
		"silicon-tlrw": func(r *run) plan {
			return siliconPlan(r, tinySilicon, tlrwPort)
		},
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			r := newRun(context.Background(), 2, 0, t.TempDir(), traced)
			r.execute(tiny[name](r))
			line, err := json.Marshal(r.result())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			var out result
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", name, traced, out.Correct, out.Failed, out.Attempted)
			}
			for _, m := range want {
				if n := strings.Count(string(line), `"`+m.Name+`":`); n != 1 {
					t.Errorf("%s traced=%v: %s printed %d times", name, traced, m.Name, n)
				}
				if got := out.Metrics[m.Name]; got.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s has unit %q, declared %q", name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", name, traced, len(out.Metrics), len(want))
			}
		}
	}
}

var tinySilicon = siliconConfig{
	Window: 10 * time.Millisecond, SymWindows: 1, FallbackWindows: 1,
	FenceCalls: 1_000, HeavyCalls: 100, WarmOps: 1_000,
}

// TestDeclaredMetricsMatchSpec holds the program's metric tables equal
// to BENCHMARK.json, names, units and order.
func TestDeclaredMetricsMatchSpec(t *testing.T) {
	spec := mustSpec(t)
	for _, c := range []struct {
		what string
		prog []metric
		spec []specMetric
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.prog) != len(c.spec) {
			t.Errorf("%s: the program declares %d metrics, BENCHMARK.json %d", c.what, len(c.prog), len(c.spec))
			continue
		}
		for i, m := range c.prog {
			if s := c.spec[i]; s.Name != m.name || s.Unit != m.unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", c.what, i, m.name, m.unit, s.Name, s.Unit)
			}
		}
	}
}

// TestSelfTime covers nested children, two overlapping children (two
// workers inside one parent) and a child running past its parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "a.kid", Parent: 1, Start: 12, End: 14},
		{Name: "b", Parent: 0, Start: 20, End: 50},
		{Name: "late", Parent: 0, Start: 90, End: 120},
	}
	// root loses [10,50] (a and b overlap on [20,30]) and [90,100].
	want := []time.Duration{50, 18, 2, 30, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self time %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestTracerNesting checks the tracer links each span to the span open
// when it started, and that a nil tracer records nothing.
func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	endRoot := tr.start("root")
	tr.start("first")()
	endSecond := tr.start("second")
	tr.start("inner")()
	endSecond()
	endRoot()
	parents := map[string]string{}
	for _, s := range tr.spans {
		p := ""
		if s.Parent >= 0 {
			p = tr.spans[s.Parent].Name
		}
		parents[s.Name] = p
		if s.End < s.Start {
			t.Errorf("%s ends before it starts", s.Name)
		}
	}
	want := map[string]string{"root": "", "first": "root", "second": "root", "inner": "second"}
	for k, v := range want {
		if parents[k] != v {
			t.Errorf("%s: parent %q, want %q", k, parents[k], v)
		}
	}
	var none *tracer
	none.start("x")()
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2, 5, 4}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestVerdict covers each verdict of the comparison rule.
func TestVerdict(t *testing.T) {
	series := func(vals ...float64) []seedValue {
		out := make([]seedValue, len(vals))
		for i, v := range vals {
			out[i] = seedValue{uint64(i + 1), v}
		}
		return out
	}
	base := series(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		name        string
		base, cur   []seedValue
		lowerBetter bool
		want        string
	}{
		{"within bound", base, series(103, 104, 102, 103, 105, 101, 103, 104, 102, 103), true, "unchanged"},
		{"worse", base, series(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), true, "worse"},
		{"worse when higher is better", base, series(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), false, "worse"},
		{"improved", base, series(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), true, "improved"},
		{"too few pairs to claim a gain", base[:5], series(90, 91, 89, 90, 92), true, "unchanged"},
		{"noisy parent", series(50, 150, 60, 140, 100), series(110, 120, 90, 100, 105), true, "unresolved"},
		{"noisy parent, change better in every run", series(50, 150, 60, 140, 100), series(40, 45, 42, 44, 41), true, "improved"},
	} {
		if got := verdict(c.base, c.cur, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
