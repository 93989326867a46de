package mem

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"testing/quick"
)

func TestLineOf(t *testing.T) {
	cases := []struct {
		a    Addr
		want Line
	}{
		{0, 0}, {1, 0}, {31, 0}, {32, 32}, {33, 32}, {63, 32}, {64, 64},
		{0x1234, 0x1220},
	}
	for _, c := range cases {
		if got := LineOf(c.a); got != c.want {
			t.Errorf("LineOf(%#x) = %#x, want %#x", c.a, got, c.want)
		}
	}
}

func TestWordIndexAndMask(t *testing.T) {
	for w := 0; w < WordsPerLine; w++ {
		a := Addr(0x1000 + w*WordSize)
		if got := WordIndex(a); got != uint(w) {
			t.Errorf("WordIndex(%#x) = %d, want %d", a, got, w)
		}
		if got := WordMaskOf(a); got != 1<<w {
			t.Errorf("WordMaskOf(%#x) = %b, want %b", a, got, 1<<w)
		}
	}
}

// Property: every address belongs to exactly the line whose range covers
// it, and word masks of distinct words in a line never overlap.
func TestLinePropertiesQuick(t *testing.T) {
	f := func(a uint32) bool {
		l := LineOf(Addr(a))
		if uint32(l) > a || a >= uint32(l)+LineSize {
			return false
		}
		return uint32(l)%LineSize == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b uint32) bool {
		aa := Addr(a &^ 3)
		bb := Addr(b &^ 3)
		if LineOf(aa) == LineOf(bb) && aa != bb {
			return WordMaskOf(aa)&WordMaskOf(bb) == 0
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestAlign(t *testing.T) {
	if Align(0, 32) != 0 || Align(1, 32) != 32 || Align(32, 32) != 32 || Align(33, 64) != 64 {
		t.Fatal("Align misbehaves")
	}
}

func TestHomeBankCoversAllBanks(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		seen[HomeBank(Line(i*LineSize), 8)] = true
	}
	for b := 0; b < 8; b++ {
		if !seen[b] {
			t.Errorf("bank %d never used", b)
		}
	}
	// Consecutive lines alternate banks (the interleaving the WeeFence
	// confinement rule is evaluated against).
	if HomeBank(0, 8) == HomeBank(LineSize, 8) {
		t.Error("consecutive lines share a bank")
	}
}

func TestStoreLoadRoundtrip(t *testing.T) {
	s := NewStore()
	if s.Load(0x100) != 0 {
		t.Fatal("uninitialized word not zero")
	}
	s.StoreWord(0x100, 42)
	s.StoreWord(0x104, 99)
	if s.Load(0x100) != 42 || s.Load(0x104) != 99 {
		t.Fatal("roundtrip failed")
	}
}

// TestStoreMatchesMapModel drives the paged store with random aligned
// loads and stores over the whole 32-bit space, mixed with stores near a
// few hot addresses (the lowest and highest words, and a dense workload
// region), and compares every call with a map model. ForEach must visit
// exactly the model's written words, zeros included, in address order.
func TestStoreMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, model := NewStore(), map[Addr]uint32{}
		hot := []uint32{0, 0xFFFFFFFC, 0x1000, 0x7FFFF000}
		addr := func() Addr {
			if rng.Intn(2) == 0 {
				return Addr(rng.Uint32() &^ 3)
			}
			return Addr(hot[rng.Intn(len(hot))] + uint32(rng.Intn(8192)-4096)&^3)
		}
		for i := 0; i < 20_000; i++ {
			a := addr()
			if rng.Intn(3) == 0 {
				v := rng.Uint32()
				if rng.Intn(4) == 0 {
					v = 0
				}
				s.StoreWord(a, v)
				model[a] = v
				continue
			}
			if got, want := s.Load(a), model[a]; got != want {
				t.Fatalf("seed %d, op %d: Load(%#x) = %d, want %d", seed, i, uint32(a), got, want)
			}
		}
		var want []Addr
		for a := range model {
			want = append(want, a)
		}
		slices.Sort(want)
		var got []Addr
		s.ForEach(func(a Addr, v uint32) {
			if v != model[a] {
				t.Fatalf("seed %d: ForEach gives %#x = %d, want %d", seed, uint32(a), v, model[a])
			}
			got = append(got, a)
		})
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: ForEach visited %d words, want the model's %d in address order", seed, len(got), len(want))
		}
	}
}

// TestStoreTopWordIsSmall: a lone store to the highest word allocates
// one page and a page table for its region, not a table spanning the
// address space below it.
func TestStoreTopWordIsSmall(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewStore()
	s.StoreWord(0xFFFFFFFC, 7)
	runtime.ReadMemStats(&after)
	if s.Load(0xFFFFFFFC) != 7 {
		t.Fatal("top word lost")
	}
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("a store to 0xFFFFFFFC allocated %d bytes", n)
	if n >= 16<<10 {
		t.Fatalf("a store to 0xFFFFFFFC allocated %d bytes, want under 16 KiB", n)
	}
}

func TestStoreUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned access did not panic")
		}
	}()
	NewStore().Load(0x101)
}

func TestAllocator(t *testing.T) {
	al := NewAllocator(0x1000)
	a := al.Alloc("a", 3*WordSize, WordSize)
	b := al.AllocLines("b", 2)
	if a != 0x1000 {
		t.Fatalf("first allocation at %#x", a)
	}
	if uint32(b)%LineSize != 0 {
		t.Fatalf("line allocation not aligned: %#x", b)
	}
	if b < a+12 {
		t.Fatal("allocations overlap")
	}
	r, ok := al.Lookup("b")
	if !ok || r.Base != b || r.Size != 2*LineSize {
		t.Fatalf("lookup mismatch: %+v", r)
	}
	if _, ok := al.Lookup("missing"); ok {
		t.Fatal("found a missing symbol")
	}
}

func TestAllocatorDuplicatePanics(t *testing.T) {
	al := NewAllocator(0)
	al.Alloc("x", WordSize, WordSize)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate symbol did not panic")
		}
	}()
	al.Alloc("x", WordSize, WordSize)
}

func TestPrivacy(t *testing.T) {
	p := NewPrivacy()
	if p.Shared(LineOf(0x2000)) {
		t.Fatal("empty map reports shared")
	}
	p.MarkShared(0x2000, 64)
	if !p.Shared(LineOf(0x2000)) || !p.Shared(LineOf(0x2020)) {
		t.Fatal("marked range not shared")
	}
	if p.Shared(LineOf(0x2040)) {
		t.Fatal("line past the range reported shared")
	}
	// Partial overlap: a range covering any byte of a line makes the line
	// shared.
	p.MarkShared(0x3010, 4)
	if !p.Shared(LineOf(0x3000)) {
		t.Fatal("partially covered line not shared")
	}
}
