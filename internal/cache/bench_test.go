package cache

import (
	"testing"

	"asymfence/internal/mem"
)

// BenchmarkLookupInstall measures the L1 hot path as the core sees it:
// a Lookup, followed by an Install on miss. The working set (1024 lines)
// is four times the cache capacity, so the steady state mixes hits with
// LRU evictions. Must be allocation-free: every set is a window into the
// one tag array the first Install allocates.
func BenchmarkLookupInstall(b *testing.B) {
	c := New(8*1024, 4) // 256 lines
	rng := uint32(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng = rng*1664525 + 1013904223
		l := mem.LineOf(mem.Addr(rng % (1024 * mem.LineSize)))
		if _, hit := c.Lookup(l); !hit {
			c.Install(l, Shared)
		}
	}
}

// BenchmarkLookupHit isolates the all-hits path (the common case once a
// workload's lines are resident).
func BenchmarkLookupHit(b *testing.B) {
	c := New(8*1024, 4)
	const resident = 64
	for i := 0; i < resident; i++ {
		c.Install(mem.Line(i*mem.LineSize), Shared)
	}
	rng := uint32(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng = rng*1664525 + 1013904223
		l := mem.Line((rng % resident) * mem.LineSize)
		if _, hit := c.Lookup(l); !hit {
			b.Fatal("expected hit")
		}
	}
}
