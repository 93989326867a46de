package asymfence_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"asymfence"
)

// quickOpts are the smallest parameters that still exercise every
// workload group; fig12's sweep is pinned to the same core count so
// "all" stays cheap.
func quickOpts() asymfence.Options {
	return asymfence.Options{Cores: 4, Scale: 0.05, Horizon: 10_000, CoreCounts: []int{4}}
}

// renderAll runs the "all" experiment and concatenates its rendered
// tables.
func renderAll(t *testing.T, jobs int, stats *asymfence.RunStats) string {
	t.Helper()
	e, ok := asymfence.LookupExperiment("all")
	if !ok {
		t.Fatal(`registry has no "all" entry`)
	}
	opts := quickOpts()
	opts.Jobs = jobs
	opts.Stats = stats
	tables, err := e.Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("all (jobs=%d): %v", jobs, err)
	}
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelSequentialEquivalence is the engine's determinism
// contract: every experiment's rendered tables are byte-identical under
// a sequential pool and a parallel one. Each run starts from a flushed
// cache so both actually schedule work.
func TestParallelSequentialEquivalence(t *testing.T) {
	asymfence.FlushSimCache()
	var seqStats asymfence.RunStats
	seq := renderAll(t, 1, &seqStats)

	asymfence.FlushSimCache()
	var parStats asymfence.RunStats
	par := renderAll(t, 4, &parStats)

	if seq != par {
		t.Fatalf("sequential and parallel output differ:\n-- jobs=1 --\n%s\n-- jobs=4 --\n%s", seq, par)
	}
	if seqStats.Jobs != parStats.Jobs || seqStats.Simulated != parStats.Simulated {
		t.Errorf("job accounting differs: jobs=1 %+v, jobs=4 %+v", seqStats, parStats)
	}
	if seqStats.CacheHits == 0 {
		t.Errorf("running all experiments produced no cache hits: %+v", seqStats)
	}
}

// TestCacheHitAccounting checks the shared measurement cache end to
// end: fig10 reruns exactly fig9's simulations, so after fig9 it must
// be served entirely from the cache.
func TestCacheHitAccounting(t *testing.T) {
	asymfence.FlushSimCache()
	opts := quickOpts()

	fig9, ok := asymfence.LookupExperiment("fig9")
	if !ok {
		t.Fatal(`registry has no "fig9" entry`)
	}
	var first asymfence.RunStats
	opts.Stats = &first
	if _, err := fig9.Run(context.Background(), opts); err != nil {
		t.Fatalf("fig9: %v", err)
	}
	if first.Simulated == 0 || first.CacheHits != 0 {
		t.Fatalf("fresh fig9 stats = %+v, want only simulations", first)
	}

	fig10, ok := asymfence.LookupExperiment("fig10")
	if !ok {
		t.Fatal(`registry has no "fig10" entry`)
	}
	var second asymfence.RunStats
	opts.Stats = &second
	if _, err := fig10.Run(context.Background(), opts); err != nil {
		t.Fatalf("fig10: %v", err)
	}
	if second.Simulated != 0 || second.CacheHits != second.Jobs || second.Jobs != first.Jobs {
		t.Fatalf("cached fig10 stats = %+v after fig9 %+v, want all %d jobs as hits",
			second, first, first.Jobs)
	}
}

// TestRunCancellation: canceling the context aborts the run, the error
// wraps context.Canceled, and the jobs not yet started never simulate.
func TestRunCancellation(t *testing.T) {
	asymfence.FlushSimCache()
	e, ok := asymfence.LookupExperiment("headline")
	if !ok {
		t.Fatal(`registry has no "headline" entry`)
	}

	// Pre-canceled: nothing may run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stats asymfence.RunStats
	opts := quickOpts()
	opts.Stats = &stats
	_, err := e.Run(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Run error = %v, want wrapped context.Canceled", err)
	}
	if stats.Simulated != 0 {
		t.Fatalf("pre-canceled Run stats = %+v, want no simulations", stats)
	}

	// Mid-run: the progress line of the first completed job cancels the
	// run; the pool must stop scheduling and interrupt the jobs in flight.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	opts = quickOpts()
	opts.Jobs = 2
	opts.Progress = cancelOnWrite(cancel)
	opts.Stats = &stats
	_, err = e.Run(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel error = %v, want wrapped context.Canceled", err)
	}
	if stats.Simulated >= stats.Jobs {
		t.Fatalf("mid-run cancel stats = %+v, want fewer simulations than jobs", stats)
	}
}

// cancelOnWrite is a progress writer that calls cancel on its first
// write, i.e. when the first job of a run completes.
type cancelOnWrite context.CancelFunc

func (c cancelOnWrite) Write(p []byte) (int, error) {
	c()
	return len(p), nil
}
