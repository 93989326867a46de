package runner

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"asymfence/internal/metrics"
)

// mapTier is an in-memory Tier for testing the read-through and
// fill-on-simulate contract without disk.
type mapTier struct {
	mu    sync.Mutex
	m     map[string]string
	loads atomic.Int64
}

func newMapTier() *mapTier { return &mapTier{m: map[string]string{}} }

// Load implements Tier.
func (t *mapTier) Load(key string) (string, bool) {
	t.loads.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.m[key]
	return v, ok
}

// Store implements Tier.
func (t *mapTier) Store(key, v string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[key] = v
}

func TestTierReadThroughAndWriteBehind(t *testing.T) {
	tier := newMapTier()
	reg := metrics.NewRegistry()
	var calls atomic.Int64
	specs := []Spec{spec(0), spec(1), spec(2)}

	// Cold: everything simulates and lands in the tier.
	s1 := NewSession(NewCache[string](), echoExec(&calls),
		Options[string]{Workers: 2, Tier: tier, Metrics: reg.Scope("engine")})
	if _, err := s1.Run(context.Background(), specs); err != nil {
		t.Fatalf("cold Run: %v", err)
	}
	if st := s1.Stats(); st.Simulated != 3 || st.StoreHits != 0 {
		t.Fatalf("cold Stats = %+v, want 3 simulated, 0 store hits", st)
	}
	if len(tier.m) != 3 {
		t.Fatalf("tier holds %d records after cold run, want 3", len(tier.m))
	}

	// Warm with an empty memory cache: every leader reads through, and
	// nothing simulates.
	s2 := NewSession(NewCache[string](), echoExec(&calls),
		Options[string]{Workers: 2, Tier: tier, Metrics: reg.Scope("engine")})
	got, err := s2.Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("warm Run: %v", err)
	}
	for i, sp := range specs {
		if got[i] != sp.Key() {
			t.Fatalf("warm results[%d] = %q, want %q", i, got[i], sp.Key())
		}
	}
	if st := s2.Stats(); st.Simulated != 0 || st.StoreHits != 3 || st.Hits != 0 {
		t.Fatalf("warm Stats = %+v, want 3 store hits only", st)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("exec ran %d times across cold+warm, want 3", n)
	}

	// Within one warm batch, duplicates resolve in memory: the tier is
	// consulted once per unique key, not once per job.
	tier.loads.Store(0)
	s3 := NewSession(NewCache[string](), echoExec(&calls),
		Options[string]{Workers: 4, Tier: tier})
	dups := []Spec{spec(0), spec(0), spec(0), spec(0)}
	if _, err := s3.Run(context.Background(), dups); err != nil {
		t.Fatalf("dup Run: %v", err)
	}
	if n := tier.loads.Load(); n != 1 {
		t.Fatalf("tier consulted %d times for 1 unique key, want 1", n)
	}
	if st := s3.Stats(); st.StoreHits != 1 || st.Hits != 3 || st.Simulated != 0 {
		t.Fatalf("dup Stats = %+v, want 1 store hit + 3 memory hits", st)
	}

	// The metric counters mirror the accounting: 6 leader lookups total
	// under reg's engine scope (3 cold misses + 3 warm hits).
	js := string(reg.JSON())
	for _, want := range []string{`"engine.store.hits": 3`, `"engine.store.misses": 3`} {
		if !strings.Contains(js, want) {
			t.Fatalf("metrics snapshot missing %q:\n%s", want, js)
		}
	}
}

func TestNoTierRegistersNoStoreMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	var calls atomic.Int64
	s := NewSession(NewCache[string](), echoExec(&calls),
		Options[string]{Workers: 1, Metrics: reg.Scope("engine")})
	if _, err := s.Run(context.Background(), []Spec{spec(0)}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if js := string(reg.JSON()); strings.Contains(js, "engine.store.") {
		t.Fatalf("store metrics registered without a tier:\n%s", js)
	}
}
