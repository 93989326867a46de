package store

import (
	"fmt"
	"testing"
)

// BenchmarkOpen opens a store of 416 records, the size `asymsim all`
// fills, spread over about 200 fan directories: the fixed cost every
// store-warm regeneration pays before its first Get.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 416; i++ {
		v := int64(i)
		s.Put(fmt.Sprintf("key-%d", i), func(c Codec) { c.Int(&v) })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(dir, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
