package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"asymfence/internal/stats"
)

// Digest returns a hex-encoded SHA-256 over a canonical rendering of the
// result: the cycle count, every per-core counter (map-valued counters
// are rendered in sorted key order), the NoC traffic accounting and the
// directory counters. Two runs with identical configurations produce the
// same digest; the golden-digest regression test in internal/experiments
// pins the digests of the paper's designs so that kernel optimizations
// (idle skipping, pooling) can be proven not to change a single
// architectural result.
//
// Intervals are folded in only by length: the interval series is fully
// determined by the per-core counters it samples, and golden runs do not
// enable sampling.
func (r *Result) Digest() string {
	h := sha256.Sum256([]byte(r.canonical()))
	return hex.EncodeToString(h[:])
}

// canonical renders every architecturally meaningful field of the result
// in a fixed order.
func (r *Result) canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d finished=%v ncores=%d nintervals=%d\n",
		r.Cycles, r.Finished, len(r.Cores), len(r.Intervals))
	for i, c := range r.Cores {
		fmt.Fprintf(&b, "core=%d ", i)
		writeCoreStats(&b, c)
	}
	n := r.NoC
	fmt.Fprintf(&b, "noc packets=%d bytes=%d bycat=%v pbycat=%v\n",
		n.Packets, n.Bytes, n.BytesByCat, n.PacketsByCat)
	b.WriteString("dir")
	for _, f := range r.Dir.Counters() {
		fmt.Fprintf(&b, " %s=%d", f.Name, *f.Val)
	}
	b.WriteByte('\n')
	return b.String()
}

func writeCoreStats(b *strings.Builder, c *stats.Core) {
	for _, f := range c.Counters() {
		fmt.Fprintf(b, "%s=%d ", f.Name, *f.Val)
	}
	fmt.Fprintf(b, "halt=%d", c.HaltCycle)
	writeSortedI32(b, " events", c.Events)
	writeSortedInt(b, " sites", c.FenceSiteStall)
	b.WriteByte('\n')
}

func writeSortedI32(b *strings.Builder, label string, m map[int32]uint64) {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b.WriteString(label)
	for _, k := range keys {
		fmt.Fprintf(b, " %d:%d", k, m[k])
	}
}

func writeSortedInt(b *strings.Builder, label string, m map[int]uint64) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	b.WriteString(label)
	for _, k := range keys {
		fmt.Fprintf(b, " %d:%d", k, m[k])
	}
}
