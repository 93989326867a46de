package litmus

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"asymfence/internal/isa"
	"asymfence/internal/mem"
)

func TestOutcomeKeyDeterministic(t *testing.T) {
	o := Outcome{
		Regs:  [][4]uint32{{1, 2, 0, 0xffffffff}, {5, 6, 7, 8}},
		Mem:   []uint32{9, 0, 4294967295},
		Extra: []ExtraWord{{Addr: 0, Val: 3}, {Addr: 0x20, Val: 7}, {Addr: 0xffffffff, Val: 0}},
	}
	k1, k2 := o.Key(), o.Key()
	if k1 != k2 {
		t.Fatalf("Key not deterministic: %q vs %q", k1, k2)
	}
	const want = "t0=1,2,0,4294967295 t1=5,6,7,8 | 9 0 4294967295 @0x0=3 @0x20=7 @0xffffffff=0"
	if k1 != want {
		t.Fatalf("Key() = %q, want %q", k1, want)
	}
}

// fmtKey is Key's encoding written with fmt, as Key itself was before
// it was built from strconv appends; TestKeyMatchesFmt holds Key to it.
func fmtKey(o Outcome) string {
	var b strings.Builder
	for t, r := range o.Regs {
		if t > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "t%d=%d,%d,%d,%d", t, r[0], r[1], r[2], r[3])
	}
	b.WriteString(" |")
	for _, v := range o.Mem {
		fmt.Fprintf(&b, " %d", v)
	}
	for _, e := range o.Extra {
		fmt.Fprintf(&b, " @%#x=%d", uint32(e.Addr), e.Val)
	}
	return b.String()
}

// randOutcome draws an outcome of 1-8 threads, 0-16 memory words and
// 0-3 extra words. A third of the values are 0 or 0xffffffff, and an
// extra word's address may be 0.
func randOutcome(rng *rand.Rand) Outcome {
	val := func() uint32 {
		switch rng.IntN(6) {
		case 0:
			return 0
		case 1:
			return 0xffffffff
		case 2:
			return uint32(rng.IntN(100))
		}
		return rng.Uint32()
	}
	o := Outcome{Regs: make([][4]uint32, 1+rng.IntN(8))}
	for t := range o.Regs {
		for j := range o.Regs[t] {
			o.Regs[t][j] = val()
		}
	}
	for n := rng.IntN(17); n > 0; n-- {
		o.Mem = append(o.Mem, val())
	}
	for n := rng.IntN(4); n > 0; n-- {
		o.Extra = append(o.Extra, ExtraWord{Addr: mem.Addr(val()), Val: val()})
	}
	return o
}

func TestKeyMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	for i := 0; i < 20000; i++ {
		o := randOutcome(rng)
		if got, want := o.Key(), fmtKey(o); got != want {
			t.Fatalf("outcome %d: Key() = %q, fmt encoding %q", i, got, want)
		}
	}
}

func TestOutcomeSet(t *testing.T) {
	s := NewOutcomeSet()
	o := Outcome{Regs: [][4]uint32{{1, 0, 0, 0}}, Mem: []uint32{2}}
	if !s.Add(o) {
		t.Fatal("first Add returned false")
	}
	if s.Add(o) {
		t.Fatal("second Add of the same outcome returned true")
	}
	if !s.Has(o.Key()) {
		t.Fatal("Has(Key) = false after Add")
	}
	other := NewOutcomeSet()
	other.AddKey("x")
	s.Union(other)
	if len(s) != 2 || !s.Has("x") {
		t.Fatalf("Union: got %v", s.Keys())
	}
	keys := s.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("Keys not sorted: %v", keys)
		}
	}
}

func TestInitImage(t *testing.T) {
	r := mem.Region{Base: 0x1000, Size: 2 * mem.LineSize}
	img := InitImage(r)
	if len(img) != 2*mem.WordsPerLine {
		t.Fatalf("image has %d words, want %d", len(img), 2*mem.WordsPerLine)
	}
	for i, v := range img {
		if v != InitWord(i) {
			t.Fatalf("img[%d] = %#x, want %#x", i, v, InitWord(i))
		}
		if v == 0 {
			t.Fatalf("img[%d] is zero; the image must be distinguishable from unwritten state", i)
		}
	}
}

func TestExtractOutcome(t *testing.T) {
	shared := mem.Region{Base: 0x100, Size: mem.LineSize}
	memory := map[mem.Addr]uint32{
		0x100: 11, 0x104: 12,
		0x20: 99, // outside the region
	}
	o := ExtractOutcome(2, shared,
		func(tr int, r isa.Reg) uint32 { return uint32(tr)*100 + uint32(r) },
		func(a mem.Addr) uint32 { return memory[a] },
		func(f func(a mem.Addr, v uint32)) {
			// Deliberately unsorted iteration incl. in-region words.
			f(0x104, 12)
			f(0x20, 99)
			f(0x100, 11)
		})
	if len(o.Regs) != 2 || o.Regs[0][0] != 10 || o.Regs[1][3] != 113 {
		t.Fatalf("regs wrong: %v", o.Regs)
	}
	if o.Mem[0] != 11 || o.Mem[1] != 12 || o.Mem[2] != 0 {
		t.Fatalf("mem wrong: %v", o.Mem)
	}
	if len(o.Extra) != 1 || o.Extra[0] != (ExtraWord{Addr: 0x20, Val: 99}) {
		t.Fatalf("extra wrong: %v", o.Extra)
	}
	// ObservedRegs must be the generator's load-destination window.
	if len(ObservedRegs) != 4 || ObservedRegs[0] != isa.Reg(10) {
		t.Fatalf("ObservedRegs = %v", ObservedRegs)
	}
}
