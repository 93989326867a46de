package litmus

import (
	"testing"

	"asymfence/internal/mem"
)

// BenchmarkOutcomeKey encodes an outcome of conform's default shape:
// two threads' observed registers and one shared line of eight words,
// some still holding the initial image. Every TSO final state, simulator
// run and hardware iteration is encoded once.
func BenchmarkOutcomeKey(b *testing.B) {
	o := Outcome{
		Regs: [][4]uint32{{InitWord(1), 3, 0, InitWord(6)}, {5, InitWord(0), 3, 0}},
		Mem:  InitImage(mem.Region{Base: 0x1000, Size: mem.LineSize}),
	}
	o.Mem[0], o.Mem[3] = 3, 5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = o.Key()
	}
}

// keySink keeps the compiler from dropping the benchmarked call.
var keySink string
