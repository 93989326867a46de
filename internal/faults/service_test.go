package faults

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestWriteFaultsDeterministicSchedule asserts the fault schedule is a
// pure function of (seed, draw index): two injectors with equal seeds
// produce identical outcome sequences, and a different seed produces a
// different one.
func TestWriteFaultsDeterministicSchedule(t *testing.T) {
	dir := t.TempDir()
	run := func(seed uint64) []string {
		w := NewWriteFaults(seed, DefaultFS())
		wrapped := w.Wrap(func(path string, data []byte) error {
			return os.WriteFile(path, data, 0o666)
		})
		var outcomes []string
		for i := 0; i < 128; i++ {
			path := filepath.Join(dir, "f")
			err := wrapped(path, []byte("0123456789abcdef"))
			switch {
			case err == nil:
				b, _ := os.ReadFile(path)
				if len(b) < 16 {
					outcomes = append(outcomes, "torn")
				} else {
					outcomes = append(outcomes, "ok")
				}
			case strings.Contains(err.Error(), "no space"):
				outcomes = append(outcomes, "enospc")
			default:
				outcomes = append(outcomes, "err")
			}
			os.Remove(path)
		}
		return outcomes
	}
	a, b, c := run(11), run(11), run(12)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	if strings.Join(a, ",") == strings.Join(c, ",") {
		t.Fatalf("different seeds produced the same schedule")
	}
	counts := map[string]int{}
	for _, o := range a {
		counts[o]++
	}
	for _, kind := range []string{"ok", "torn", "err", "enospc"} {
		if counts[kind] == 0 {
			t.Errorf("fault kind %q never drawn in 128 writes: %v", kind, counts)
		}
	}
}

// TestWriteFaultsConcurrentSafe hammers one injector from many
// goroutines under the race detector; the set of injected faults stays
// deterministic even though their assignment to writes is not.
func TestWriteFaultsConcurrentSafe(t *testing.T) {
	dir := t.TempDir()
	w := NewWriteFaults(3, DefaultFS())
	wrapped := w.Wrap(func(path string, data []byte) error {
		return os.WriteFile(path, data, 0o666)
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			path := filepath.Join(dir, "g"+string(rune('0'+g)))
			for i := 0; i < 64; i++ {
				wrapped(path, []byte("payload"))
			}
		}(g)
	}
	wg.Wait()
	if got := w.ctr.Load(); got != 8*64 {
		t.Fatalf("draw counter = %d, want %d (every write drew exactly once)", got, 8*64)
	}
}

func TestWriteFaultsNilInert(t *testing.T) {
	var w *WriteFaults
	called := false
	next := func(string, []byte) error { called = true; return nil }
	if err := w.Wrap(next)("x", nil); err != nil || !called {
		t.Fatalf("nil injector altered the write path: err=%v called=%v", err, called)
	}
}
