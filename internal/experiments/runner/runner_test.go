package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"asymfence/internal/fence"
)

// spec builds a distinct Spec for index i.
func spec(i int) Spec {
	return Spec{Group: "cilk", App: fmt.Sprintf("app%d", i), Design: fence.WSPlus, Cores: 8, Scale: 0.25}
}

// echoExec returns each spec's key, counting executions.
func echoExec(calls *atomic.Int64) func(context.Context, Spec) (string, error) {
	return func(_ context.Context, sp Spec) (string, error) {
		calls.Add(1)
		return sp.Key(), nil
	}
}

func TestRunPositionalResults(t *testing.T) {
	var calls atomic.Int64
	s := NewSession(NewCache[string](), echoExec(&calls), Options[string]{Workers: 4})
	specs := make([]Spec, 16)
	for i := range specs {
		specs[i] = spec(len(specs) - 1 - i) // reverse order: merge must not depend on scheduling
	}
	got, err := s.Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, sp := range specs {
		if got[i] != sp.Key() {
			t.Errorf("results[%d] = %q, want %q", i, got[i], sp.Key())
		}
	}
	if n := calls.Load(); n != 16 {
		t.Errorf("exec ran %d times, want 16", n)
	}
}

func TestInBatchDedup(t *testing.T) {
	var calls atomic.Int64
	s := NewSession(NewCache[string](), echoExec(&calls), Options[string]{Workers: 8})
	// 24 jobs over 3 unique keys: duplicates must join the leader or hit
	// the cache, never re-execute.
	var specs []Spec
	for i := 0; i < 24; i++ {
		specs = append(specs, spec(i%3))
	}
	got, err := s.Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, sp := range specs {
		if got[i] != sp.Key() {
			t.Fatalf("results[%d] = %q, want %q", i, got[i], sp.Key())
		}
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("exec ran %d times for 3 unique keys, want 3", n)
	}
	st := s.Stats()
	if st.Jobs != 24 || st.Simulated != 3 || st.Hits != 21 {
		t.Errorf("Stats = %+v, want {Jobs:24 Hits:21 Simulated:3}", st)
	}
}

func TestCrossRunMemoization(t *testing.T) {
	var calls atomic.Int64
	cache := NewCache[string]()
	specs := []Spec{spec(0), spec(1), spec(2)}

	s1 := NewSession(cache, echoExec(&calls), Options[string]{Workers: 2})
	if _, err := s1.Run(context.Background(), specs); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	// A fresh session sharing the cache must serve everything as hits.
	s2 := NewSession(cache, echoExec(&calls), Options[string]{Workers: 2})
	if _, err := s2.Run(context.Background(), specs); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("exec ran %d times across two sessions, want 3", n)
	}
	st := s2.Stats()
	if st.Hits != 3 || st.Simulated != 0 {
		t.Errorf("second session Stats = %+v, want 3 hits, 0 simulated", st)
	}
	if cache.Len() != 3 {
		t.Errorf("cache.Len() = %d, want 3", cache.Len())
	}
	cache.Flush()
	if cache.Len() != 0 {
		t.Errorf("cache.Len() after Flush = %d, want 0", cache.Len())
	}
}

func TestErrorSelectionPrefersLowestIndex(t *testing.T) {
	boom := errors.New("boom")
	exec := func(_ context.Context, sp Spec) (string, error) {
		if sp.App == "app1" || sp.App == "app3" {
			return "", fmt.Errorf("%s: %w", sp.App, boom)
		}
		return sp.Key(), nil
	}
	s := NewSession(NewCache[string](), exec, Options[string]{Workers: 1})
	_, err := s.Run(context.Background(), []Spec{spec(0), spec(1), spec(2), spec(3)})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want wrapped boom", err)
	}
	// Workers=1 executes in order; app1 fails first and must be the error
	// reported, with app3 never reached (fail-fast cancel).
	if want := "app1: boom"; err.Error() != want {
		t.Errorf("Run error = %q, want %q", err, want)
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("genuine failure must not read as cancellation: %v", err)
	}
}

func TestCanceledContext(t *testing.T) {
	var calls atomic.Int64
	cache := NewCache[string]()
	exec := func(ctx context.Context, sp Spec) (string, error) {
		calls.Add(1)
		// Model a cooperative simulation: observe cancellation promptly.
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(10 * time.Millisecond):
			return sp.Key(), nil
		}
	}
	s := NewSession(cache, exec, Options[string]{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-canceled: every job must be skipped or abort
	_, err := s.Run(ctx, []Spec{spec(0), spec(1), spec(2), spec(3)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want wrapped context.Canceled", err)
	}
	// Canceled executions are not results; the cache must not retain them.
	if n := cache.Len(); n != 0 {
		t.Errorf("cache.Len() after canceled batch = %d, want 0 (no pollution)", n)
	}
	// A later, uncanceled run must execute everything afresh.
	calls.Store(0)
	got, err := s.Run(context.Background(), []Spec{spec(0), spec(1)})
	if err != nil {
		t.Fatalf("post-cancel Run: %v", err)
	}
	if got[0] != spec(0).Key() || got[1] != spec(1).Key() {
		t.Errorf("post-cancel results wrong: %v", got)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("post-cancel exec ran %d times, want 2", n)
	}
}

func TestSpecKeyCanonical(t *testing.T) {
	a := Spec{Group: "ustm", App: "counter", Design: fence.WPlus, Cores: 8, Horizon: 60_000}
	b := a
	if a.Key() != b.Key() {
		t.Fatalf("equal specs disagree on key: %q vs %q", a.Key(), b.Key())
	}
	c := a
	c.Cores = 16
	if a.Key() == c.Key() {
		t.Errorf("different core counts share key %q", a.Key())
	}
	d := Spec{Group: "cilk", App: "fib", Design: fence.Wee, Cores: 4, Scale: 0.1}
	e := d
	e.Scale = 0.25
	if d.Key() == e.Key() {
		t.Errorf("different scales share key %q", d.Key())
	}
}
