package runner

import (
	"context"
	"strings"
	"testing"
	"time"

	"asymfence/internal/metrics"
)

func TestEtaString(t *testing.T) {
	now := time.Now()
	if got := etaString(now, 0, 10); got != "" {
		t.Errorf("eta with no completed jobs = %q, want empty", got)
	}
	if got := etaString(now.Add(-time.Second), 10, 10); got != "" {
		t.Errorf("eta when done = %q, want empty", got)
	}
	if got := etaString(now, 1, 10); got != "" {
		t.Errorf("eta under the 10ms settle window = %q, want empty", got)
	}
	// 2 of 10 jobs done after 2s -> 8s left, rounded to 100ms.
	got := etaString(now.Add(-2*time.Second), 2, 10)
	if !strings.HasPrefix(got, "  eta 8") || !strings.HasSuffix(got, "s") {
		t.Errorf("eta = %q, want \"  eta 8s\"", got)
	}
	// 1 of 100 after 2s -> 198s left, rounded to whole seconds.
	if got := etaString(now.Add(-2*time.Second), 1, 100); got != "  eta 3m18s" {
		t.Errorf("eta = %q, want \"  eta 3m18s\"", got)
	}
}

// TestSessionMetrics asserts the session counts jobs, misses and hits
// into its scope, and that scheduling-dependent quantities land under
// timing.
func TestSessionMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSession(NewCache[int](), func(ctx context.Context, sp Spec) (int, error) {
		return sp.Cores, nil
	}, Options[int]{Workers: 2, Metrics: reg.Scope("engine")})
	specs := []Spec{{App: "a", Cores: 1}, {App: "b", Cores: 2}, {App: "a", Cores: 1}}
	if _, err := s.Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), specs[:1]); err != nil {
		t.Fatal(err)
	}

	sc := reg.Scope("engine")
	if got := sc.Counter("jobs").Value(); got != 4 {
		t.Errorf("engine.jobs = %d, want 4", got)
	}
	if got := sc.Scope("cache").Counter("misses").Value(); got != 2 {
		t.Errorf("engine.cache.misses = %d, want 2 (two unique specs)", got)
	}
	if got := sc.Scope("cache").Counter("hits").Value(); got != 2 {
		t.Errorf("engine.cache.hits = %d, want 2 (dup in batch + warm rerun)", got)
	}
	if got := sc.Timing().Histogram("job_latency_ns").Count(); got != 4 {
		t.Errorf("timing job_latency_ns count = %d, want 4", got)
	}
	if got := sc.Timing().Gauge("workers").Value(); got != 2 {
		t.Errorf("timing workers = %d, want 2", got)
	}
}

// TestJobLatencyBounds: the job-latency buckets rise strictly from 10µs
// to 100s with no two neighbours more than 1.26× apart, so a p50 over
// store hits is not interpolated across a decade.
func TestJobLatencyBounds(t *testing.T) {
	b := jobLatencyBounds
	if b[0] != 10_000 || b[len(b)-1] != 100_000_000_000 {
		t.Fatalf("bounds run from %d to %d ns, want 1e4 to 1e11", b[0], b[len(b)-1])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] || float64(b[i]) > 1.26*float64(b[i-1]) {
			t.Errorf("bounds %d and %d ns: want a rise of at most 1.26x", b[i-1], b[i])
		}
	}
}
