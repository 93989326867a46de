package stamp_test

import (
	"context"
	"testing"

	"asymfence/internal/experiments"
	"asymfence/internal/fence"
	"asymfence/internal/stats"
	"asymfence/internal/workloads/stamp"
)

func TestRegistry(t *testing.T) {
	want := []string{"genome", "intruder", "kmeans", "labyrinth", "ssca2", "vacation"}
	if len(stamp.Apps) != len(want) {
		t.Fatalf("%d apps, want %d", len(stamp.Apps), len(want))
	}
	for i, name := range want {
		if stamp.Apps[i].Name != name {
			t.Errorf("app %d = %q, want %q", i, stamp.Apps[i].Name, name)
		}
		if _, ok := stamp.ByName(name); !ok {
			t.Errorf("ByName(%q) missing", name)
		}
	}
	if _, ok := stamp.ByName("quake"); ok {
		t.Error("unknown app found")
	}
}

// runSTAMP measures one STAMP app under each design at the given size,
// through the experiment engine's job path.
func runSTAMP(t *testing.T, app string, cores int, scale float64, designs ...fence.Design) []*experiments.Measurement {
	t.Helper()
	specs := make([]experiments.Spec, len(designs))
	for i, d := range designs {
		specs[i] = experiments.Spec{Group: "stamp", App: app, Design: d, Cores: cores, Scale: scale}
	}
	ms, err := experiments.NewEngine(experiments.RunConfig{}).RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestIntruderFavorsWPlus is the paper's Fig. 11 observation: intruder's
// write-heavy transactions gain far more from W+ (which also weakens the
// write and commit fences) than from WS+.
func TestIntruderFavorsWPlus(t *testing.T) {
	ms := runSTAMP(t, "intruder", 8, 0.5, fence.SPlus, fence.WSPlus, fence.WPlus)
	base, ws, w := ms[0].Cycles, ms[1].Cycles, ms[2].Cycles
	if w >= base {
		t.Errorf("W+ (%d) not faster than S+ (%d) on intruder", w, base)
	}
	if w >= ws {
		t.Errorf("W+ (%d) not faster than WS+ (%d) on write-heavy intruder", w, ws)
	}
}

// TestLabyrinthBarelyMoves: very few, very long transactions — fence
// optimizations cannot help much (paper: "labyrinth has very few
// transactions in the first place").
func TestLabyrinthBarelyMoves(t *testing.T) {
	ms := runSTAMP(t, "labyrinth", 8, 0.5, fence.SPlus, fence.WPlus)
	base, w := ms[0].Cycles, ms[1].Cycles
	if ratio := float64(w) / float64(base); ratio < 0.85 || ratio > 1.1 {
		t.Errorf("labyrinth moved %.2fx under W+; expected near-flat", ratio)
	}
}

func TestSTAMPCorrectnessUnderAllDesigns(t *testing.T) {
	for i, m := range runSTAMP(t, "ssca2", 4, 0.3, fence.AllDesigns...) {
		d := fence.AllDesigns[i]
		if m.Commits == 0 {
			t.Fatalf("%v: nothing committed", d)
		}
		if m.Agg.Events[stats.EvCommit] < m.Agg.Events[stats.EvWriteCommit] {
			t.Fatalf("%v: more write commits than commits", d)
		}
	}
}
