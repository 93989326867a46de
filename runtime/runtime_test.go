package asymruntime

import (
	"sync"
	"testing"

	"asymfence/internal/metrics"
)

// setMode pins a fence path for a test and restores auto resolution
// afterwards. Tests in this package run sequentially (none call
// t.Parallel), matching the documented quiesced-switch contract.
func setMode(t *testing.T, m Mode) {
	t.Helper()
	if err := Use(m); err != nil {
		t.Skipf("mode %v unavailable: %v", m, err)
	}
	t.Cleanup(func() { _ = Use(ModeAuto) })
}

// Modes returns the fence paths testable on this machine: fallback
// always, membarrier when the kernel supports it. Exposed via the test
// binary only; workload packages have their own copy of this loop.
func testableModes() []Mode {
	ms := []Mode{ModeFallback}
	if Supported() {
		ms = append(ms, ModeMembarrier)
	}
	return ms
}

// TestEnvModeParsing: ParseMode, which reads ASYMFENCE_MODE and
// asymsim conform's -modes, accepts the three spellings and the empty
// string, and rejects any other as auto with ok false.
func TestEnvModeParsing(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"", ModeAuto, true},
		{"auto", ModeAuto, true},
		{"membarrier", ModeMembarrier, true},
		{"fallback", ModeFallback, true},
		{"bogus", ModeAuto, false},
		{"Fallback", ModeAuto, false},
	}
	for _, c := range cases {
		if got, ok := ParseMode(c.in); got != c.want || ok != c.ok {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestModeStrings(t *testing.T) {
	for _, m := range []Mode{ModeAuto, ModeMembarrier, ModeFallback} {
		if got, ok := ParseMode(m.String()); got != m || !ok {
			t.Errorf("mode %d does not round-trip through %q: %v, %v", m, m.String(), got, ok)
		}
	}
}

func TestFallbackForced(t *testing.T) {
	setMode(t, ModeFallback)
	if got := Active(); got != ModeFallback {
		t.Fatalf("Active() = %v after Use(ModeFallback)", got)
	}
	before := ReadStats()
	LightFence()
	HeavyFence()
	HeavyFence()
	after := ReadStats()
	if n := after.HeavyFallback - before.HeavyFallback; n != 2 {
		t.Errorf("heavy fallback count grew by %d, want 2", n)
	}
	if after.HeavyMembarrier != before.HeavyMembarrier {
		t.Errorf("membarrier count moved under fallback mode")
	}
	if after.FallbackActivations == 0 {
		t.Errorf("fallback activations = 0 after forcing fallback")
	}
}

func TestMembarrierWhenSupported(t *testing.T) {
	if !Supported() {
		if err := Use(ModeMembarrier); err != ErrUnsupported {
			t.Fatalf("Use(ModeMembarrier) = %v on unsupported host, want ErrUnsupported", err)
		}
		t.Skip("membarrier unsupported on this host")
	}
	setMode(t, ModeMembarrier)
	if got := Active(); got != ModeMembarrier {
		t.Fatalf("Active() = %v after Use(ModeMembarrier)", got)
	}
	before := ReadStats()
	LightFence() // must be the free path
	HeavyFence()
	after := ReadStats()
	if n := after.HeavyMembarrier - before.HeavyMembarrier; n != 1 {
		t.Errorf("membarrier count grew by %d, want 1", n)
	}
	if !after.Registered {
		t.Errorf("Registered = false after a successful membarrier fence")
	}
}

func TestAutoResolves(t *testing.T) {
	if err := Use(ModeAuto); err != nil {
		t.Fatalf("Use(ModeAuto): %v", err)
	}
	t.Cleanup(func() { _ = Use(ModeAuto) })
	got := Active()
	want := ModeFallback
	if Supported() {
		want = ModeMembarrier
	}
	if got != want {
		t.Fatalf("auto resolved to %v, want %v (Supported=%v)", got, want, Supported())
	}
}

// TestConcurrentFences drives both fences from many goroutines under
// the race detector, in every testable mode.
func TestConcurrentFences(t *testing.T) {
	for _, m := range testableModes() {
		t.Run(m.String(), func(t *testing.T) {
			setMode(t, m)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						LightFence()
						if i%50 == 0 {
							HeavyFence()
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

func TestCellFullFenceIsolated(t *testing.T) {
	var a, b Cell
	a.FullFence()
	b.FullFence()
	FullFence()
	if a.v.Load() != 0 || b.v.Load() != 0 {
		t.Fatalf("FullFence mutated the cell value: %d %d", a.v.Load(), b.v.Load())
	}
}

func TestExport(t *testing.T) {
	setMode(t, ModeFallback)
	HeavyFence()
	Export(nil) // nil-safe
	reg := metrics.NewRegistry()
	Export(reg)
	sc := reg.Scope("runtime")
	if sc.Counter("heavy.fallback").Value() == 0 {
		t.Errorf("runtime.heavy.fallback not exported")
	}
	if sc.Gauge("registered").Value() != 0 && !ReadStats().Registered {
		t.Errorf("runtime.registered gauge inconsistent with stats")
	}
}
