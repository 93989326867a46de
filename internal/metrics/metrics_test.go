package metrics

import (
	"bytes"
	"testing"
)

// TestNilHandlesAreFree asserts the disabled path's contract: every
// operation on nil handles (what components hold when metrics are off)
// is a no-op performing zero allocations.
func TestNilHandlesAreFree(t *testing.T) {
	var (
		r *Registry
		s = r.Scope("machine") // nil
		c = s.Counter("x")     // nil
		g = s.Gauge("y")       // nil
		h = s.Histogram("z", 1, 2, 4)
	)
	if s != nil || c != nil || g != nil || h != nil {
		t.Fatal("nil registry must yield nil scope and handles")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.SetMax(9)
		h.Observe(5)
		_ = c.Value() + g.Value() + h.Count() + h.Sum()
	})
	if allocs != 0 {
		t.Fatalf("nil metric handles allocated %v per op batch, want 0", allocs)
	}
}

// TestEnabledHandlesAreAllocationFree asserts that the hot-path update
// operations on live handles do not allocate either (registration may,
// updates may not).
func TestEnabledHandlesAreAllocationFree(t *testing.T) {
	s := NewRegistry().Scope("machine")
	c := s.Counter("c")
	g := s.Gauge("g")
	h := s.Histogram("h", 1, 2, 4, 8)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.SetMax(11)
		h.Observe(3)
	})
	if allocs != 0 {
		t.Fatalf("enabled metric handles allocated %v per op batch, want 0", allocs)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("engine")
	if s.Counter("jobs") != s.Counter("jobs") {
		t.Error("re-registering a counter returned a different handle")
	}
	if s.Gauge("w") != s.Gauge("w") {
		t.Error("re-registering a gauge returned a different handle")
	}
	if s.Histogram("lat", 1, 2) != s.Histogram("lat", 1, 2) {
		t.Error("re-registering a histogram returned a different handle")
	}
	if r.Scope("engine").Scope("cache").Counter("hits") !=
		r.Scope("engine").Scope("cache").Counter("hits") {
		t.Error("equal nested scopes resolved different handles")
	}
}

func TestGaugeSetMax(t *testing.T) {
	g := NewRegistry().Scope("m").Gauge("peak")
	g.SetMax(5)
	g.SetMax(3)
	if got := g.Value(); got != 5 {
		t.Fatalf("SetMax kept %d, want 5", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("SetMax kept %d, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Scope("m").Histogram("occ", 1, 2, 4)
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	// Buckets: <=1: {0,1}, <=2: {2}, <=4: {3,4}, +Inf: {5,100}.
	want := []int64{2, 1, 2, 2}
	for i, n := range want {
		if got := h.counts[i].Load(); got != n {
			t.Errorf("bucket %d = %d, want %d", i, got, n)
		}
	}
	if h.Count() != 7 || h.Sum() != 115 {
		t.Errorf("count/sum = %d/%d, want 7/115", h.Count(), h.Sum())
	}
}

// populate builds a fixed registry; identical calls must render
// byte-identical snapshots.
func populate() *Registry {
	r := NewRegistry()
	m := r.Scope("machine")
	m.Counter("cycles").Add(1200)
	m.Scope("fence").Counter("strong").Add(7)
	m.Scope("wb").Histogram("occupancy", 1, 2, 4, 8).Observe(3)
	m.Scope("wb").Histogram("occupancy", 1, 2, 4, 8).Observe(9)
	m.Scope("noc").Gauge("inflight_peak").SetMax(42)
	e := r.Scope("engine")
	e.Counter("jobs").Add(16)
	e.Timing().Counter("worker_busy_ns").Add(3)
	e.Timing().Histogram("job_latency_ns", 1_000_000, 1_000_000_000).Observe(5_000_000)
	return r
}

func TestSnapshotDeterminism(t *testing.T) {
	a, b := populate().JSON(), populate().JSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical registries rendered different JSON:\n%s\n---\n%s", a, b)
	}
}
