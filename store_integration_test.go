package asymfence_test

import (
	"context"
	"strings"
	"testing"

	"asymfence"
)

// renderFig9 runs fig9 with the given store wiring and returns its
// rendered table plus the run's accounting.
func renderFig9(t *testing.T, cfg asymfence.RunConfig) (string, asymfence.RunStats) {
	t.Helper()
	exp, ok := asymfence.LookupExperiment("fig9")
	if !ok {
		t.Fatal(`registry has no "fig9" entry`)
	}
	var stats asymfence.RunStats
	cfg.Stats = &stats
	tables, err := exp.Run(context.Background(), asymfence.Options{
		RunConfig: cfg,
		Cores:     4, Horizon: 10_000,
	})
	if err != nil {
		t.Fatalf("fig9: %v", err)
	}
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.String())
	}
	return b.String(), stats
}

// TestStoreWarmColdEquivalence is the persistence determinism contract:
// a run served entirely from the on-disk store renders tables
// byte-identical to the run that populated it, across a simulated
// process restart (memory cache flushed, store handle reopened), with
// zero simulations.
func TestStoreWarmColdEquivalence(t *testing.T) {
	dir := t.TempDir()

	asymfence.FlushSimCache()
	st, err := asymfence.OpenStore(dir, asymfence.StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	cold, coldStats := renderFig9(t, asymfence.RunConfig{Jobs: 2, Store: st})
	if coldStats.Simulated == 0 || coldStats.StoreHits != 0 {
		t.Fatalf("cold stats = %+v, want only simulations", coldStats)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("store Close: %v", err)
	}

	// "Restart": drop the in-memory tier, reopen the store read-only
	// fresh, and rerun. Everything must come from disk.
	asymfence.FlushSimCache()
	st2, err := asymfence.OpenStore(dir, asymfence.StoreOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	warm, warmStats := renderFig9(t, asymfence.RunConfig{Jobs: 2, Store: st2})
	if warmStats.Simulated != 0 {
		t.Fatalf("warm stats = %+v, want zero simulations", warmStats)
	}
	if warmStats.StoreHits == 0 || warmStats.StoreHits+warmStats.CacheHits != warmStats.Jobs {
		t.Fatalf("warm stats = %+v, want every job served from a cache tier", warmStats)
	}
	if warm != cold {
		t.Fatalf("store-warm run differs from cold run:\n-- cold --\n%s\n-- warm --\n%s", cold, warm)
	}
}

// TestRunBatchStoreSpansOpens checks that RunBatch persists through
// RunConfig.Store with no Close: a second handle opened on the same
// directory, after the first run returns, serves every job from disk.
func TestRunBatchStoreSpansOpens(t *testing.T) {
	dir := t.TempDir()
	jobs := []asymfence.SimJob{
		{Group: "ustm", App: "Counter", Design: asymfence.SPlus, Cores: 4, Horizon: 3000},
		{Group: "ustm", App: "Counter", Design: asymfence.Wee, Cores: 4, Horizon: 3000},
	}
	run := func(stats *asymfence.RunStats) []*asymfence.WorkloadMeasurement {
		t.Helper()
		asymfence.FlushSimCache()
		st, err := asymfence.OpenStore(dir, asymfence.StoreOptions{})
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		ms, err := asymfence.RunBatch(context.Background(), jobs, asymfence.BatchOptions{
			RunConfig: asymfence.RunConfig{Store: st, Stats: stats},
		})
		if err != nil {
			t.Fatalf("RunBatch: %v", err)
		}
		return ms
	}

	var cold, warm asymfence.RunStats
	first := run(&cold)
	if cold.Simulated != len(jobs) {
		t.Fatalf("cold stats = %+v, want %d simulations", cold, len(jobs))
	}
	second := run(&warm)
	if warm.Simulated != 0 || warm.StoreHits != len(jobs) {
		t.Fatalf("warm stats = %+v, want %d store hits and no simulations", warm, len(jobs))
	}
	for i := range first {
		if first[i].Cycles != second[i].Cycles || first[i].Commits != second[i].Commits {
			t.Fatalf("job %d: warm measurement differs: cold %+v, warm %+v", i, first[i], second[i])
		}
	}
}
