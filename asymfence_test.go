package asymfence_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"asymfence"
)

// TestPublicAPIQuickstart exercises the documented entry points end to
// end: assemble a program, run a machine, inspect registers and memory.
func TestPublicAPIQuickstart(t *testing.T) {
	b := asymfence.NewProgram("hello")
	b.Li(1, 0x1000)
	b.Li(2, 7)
	b.St(2, 1, 0)
	b.Ld(3, 1, 0)
	b.SFence()
	b.Halt()
	prog := b.MustBuild()

	store := asymfence.NewStore()
	m, err := asymfence.NewMachine(asymfence.Config{Cores: 1, Design: asymfence.SPlus},
		[]*asymfence.Program{prog}, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(0, 3); got != 7 {
		t.Fatalf("r3 = %d, want 7", got)
	}
	if got := store.Load(0x1000); got != 7 {
		t.Fatalf("mem = %d, want 7", got)
	}
}

// TestParseDesign accepts every name and alias of the five paper
// designs, case-insensitively, and rejects anything else with an error
// that lists exactly those five. The rejected inputs are the aliases
// ParseDesign once matched for the Conditional Fence baseline (it
// lowercases its input first) and the empty string.
func TestParseDesign(t *testing.T) {
	aliases := map[asymfence.Design][]string{
		asymfence.SPlus:  {"S+", "s+", "splus", "s", " SPlus "},
		asymfence.WSPlus: {"WS+", "ws+", "wsplus", "ws"},
		asymfence.SWPlus: {"SW+", "sw+", "swplus", "sw"},
		asymfence.WPlus:  {"W+", "w+", "wplus", "w"},
		asymfence.Wee:    {"Wee", "wee", "WeeFence", "weefence"},
	}
	if len(aliases) != len(asymfence.AllDesigns) {
		t.Fatalf("test covers %d designs, AllDesigns has %d", len(aliases), len(asymfence.AllDesigns))
	}
	for _, d := range asymfence.AllDesigns {
		for _, s := range append([]string{d.String()}, aliases[d]...) {
			got, err := asymfence.ParseDesign(s)
			if err != nil || got != d {
				t.Errorf("ParseDesign(%q) = %v, %v; want %v", s, got, err, d)
			}
		}
	}
	for _, s := range []string{"c-fence", "cfence", "cf", ""} {
		_, err := asymfence.ParseDesign(s)
		if err == nil {
			t.Errorf("ParseDesign(%q) succeeded, want an error", s)
			continue
		}
		if !strings.HasSuffix(err.Error(), "(valid: S+, WS+, SW+, W+, Wee)") {
			t.Errorf("ParseDesign(%q) error %q does not list exactly the five designs", s, err)
		}
	}
}

func TestWorkloadRegistries(t *testing.T) {
	want := map[string]int{"cilk": 10, "ustm": 10, "stamp": 6} // paper Table 3
	if len(asymfence.WorkloadGroups) != len(want) {
		t.Fatalf("WorkloadGroups = %v", asymfence.WorkloadGroups)
	}
	for _, g := range asymfence.WorkloadGroups {
		if got := asymfence.WorkloadApps(g); len(got) != want[g] {
			t.Errorf("%s: %d apps, want %d (paper Table 3)", g, len(got), want[g])
		}
	}
	if asymfence.WorkloadApps("nope") != nil {
		t.Error("unknown group has apps")
	}
}

func TestRunWorkloadByName(t *testing.T) {
	ctx := context.Background()
	ms, err := asymfence.RunBatch(ctx, []asymfence.SimJob{
		{Group: "cilk", App: "matmul", Design: asymfence.WSPlus, Cores: 4, Scale: 0.1},
		{Group: "ustm", App: "Hash", Design: asymfence.WPlus, Cores: 4, Horizon: 10_000},
		{Group: "stamp", App: "ssca2", Design: asymfence.SPlus, Cores: 4, Scale: 0.2},
	}, asymfence.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m := ms[0]; m.Cycles == 0 || m.App != "matmul" {
		t.Fatalf("bad measurement: %+v", m)
	}
	if ms[1].Commits == 0 {
		t.Fatal("no transactions committed")
	}
	if ms[2].Commits == 0 {
		t.Fatal("no STAMP transactions committed")
	}
	for _, bad := range []asymfence.SimJob{
		{Group: "cilk", App: "nope", Design: asymfence.WSPlus, Cores: 4, Scale: 0.1},
		{Group: "nope", App: "fib", Design: asymfence.WSPlus, Cores: 4, Scale: 0.1},
		{Group: "ustm", App: "Hash", Design: asymfence.WSPlus, Cores: 3, Horizon: 1000},
	} {
		if _, err := asymfence.RunBatch(ctx, []asymfence.SimJob{bad}, asymfence.RunConfig{}); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

// TestTraceMatchesBatch holds the one-job-path contract: a traced run
// measures exactly what the batch path measures for the same job.
func TestTraceMatchesBatch(t *testing.T) {
	ctx := context.Background()
	jobs := []asymfence.SimJob{
		{Group: "cilk", App: "fib", Design: asymfence.WSPlus, Cores: 4, Scale: 0.05},
		{Group: "ustm", App: "List", Design: asymfence.WSPlus, Cores: 4, Horizon: 5000},
		{Group: "stamp", App: "ssca2", Design: asymfence.WSPlus, Cores: 4, Scale: 0.05},
	}
	ms, err := asymfence.RunBatch(ctx, jobs, asymfence.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		tr, err := asymfence.TraceWorkload(ctx, j.Group, j.App, j.Design, asymfence.TraceOptions{
			Cores: j.Cores, Scale: j.Scale, Horizon: j.Horizon,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Events) == 0 {
			t.Errorf("%s:%s: traced run recorded no events", j.Group, j.App)
		}
		if !reflect.DeepEqual(tr.Meas, ms[i]) {
			t.Errorf("%s:%s: traced measurement differs from the batch's:\ntrace: %+v\nbatch: %+v",
				j.Group, j.App, tr.Meas, ms[i])
		}
	}
}

func TestExperimentRegistryValidation(t *testing.T) {
	if _, ok := asymfence.LookupExperiment("fig99"); ok {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := (asymfence.Experiment{}).Run(context.Background(), asymfence.Options{}); err == nil {
		t.Fatal("zero Experiment value accepted")
	}
	exp, ok := asymfence.LookupExperiment("fig8")
	if !ok {
		t.Fatal("fig8 missing from registry")
	}
	tables, err := exp.Run(context.Background(), asymfence.Options{Scale: 0.05, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("%d tables", len(tables))
	}
	s := tables[0].String()
	if !strings.Contains(s, "Fig. 8") || !strings.Contains(s, "matmul") {
		t.Fatalf("table incomplete:\n%s", s)
	}
	md := tables[0].Markdown()
	if !strings.Contains(md, "|") || !strings.Contains(md, "###") {
		t.Fatal("markdown rendering broken")
	}
}

// TestDekkerThroughPublicAPI is the quickstart example's claim as a test:
// asymmetric fences prevent the SC violation and the weak-fence thread
// stalls less.
func TestDekkerThroughPublicAPI(t *testing.T) {
	build := func(mine, other uint32, weak bool) *asymfence.Program {
		b := asymfence.NewProgram("dekker")
		b.Li(1, int32(mine))
		b.Li(2, 1)
		b.St(2, 1, 0)
		b.Fence(weak)
		b.Li(1, int32(other))
		b.Ld(10, 1, 0)
		b.Halt()
		return b.MustBuild()
	}
	idle := asymfence.NewProgram("idle").Halt().MustBuild()
	m, err := asymfence.NewMachine(asymfence.Config{Cores: 4, Design: asymfence.WSPlus},
		[]*asymfence.Program{build(0x1000, 0x1020, true), build(0x1020, 0x1000, false), idle, idle},
		asymfence.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Reg(0, 10) == 0 && m.Reg(1, 10) == 0 {
		t.Fatal("SC violation under WS+")
	}
}
