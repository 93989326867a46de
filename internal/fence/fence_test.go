package fence

import (
	"testing"
	"testing/quick"

	"asymfence/internal/mem"
)

func line(i int) mem.Line { return mem.Line(i * mem.LineSize) }

func TestDesignNamesAndProperties(t *testing.T) {
	names := map[Design]string{SPlus: "S+", WSPlus: "WS+", SWPlus: "SW+", WPlus: "W+", Wee: "Wee"}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("%v name %q", d, d.String())
		}
	}
	if SPlus.UsesBS() {
		t.Error("S+ should have no Bypass Set")
	}
	for _, d := range []Design{WSPlus, SWPlus, WPlus, Wee} {
		if !d.UsesBS() {
			t.Errorf("%v should use a Bypass Set", d)
		}
	}
}

func TestBypassSetInsertMatch(t *testing.T) {
	bs := NewBypassSet(4, false)
	if !bs.Insert(line(1), 0b0001, 10) {
		t.Fatal("insert into empty set failed")
	}
	hit, words := bs.Match(line(1))
	if !hit || words != 0b0001 {
		t.Fatalf("match: hit=%v words=%b", hit, words)
	}
	if hit, _ := bs.Match(line(2)); hit {
		t.Fatal("false match")
	}
	// Re-inserting the same line merges word masks.
	bs.Insert(line(1), 0b0100, 11)
	if _, words := bs.Match(line(1)); words != 0b0101 {
		t.Fatalf("merged mask %b", words)
	}
	if bs.Len() != 1 {
		t.Fatalf("merged insert grew the set: %d", bs.Len())
	}
}

func TestBypassSetCapacity(t *testing.T) {
	bs := NewBypassSet(2, false)
	bs.Insert(line(1), 1, 1)
	bs.Insert(line(2), 1, 1)
	if bs.Insert(line(3), 1, 1) {
		t.Fatal("insert beyond capacity succeeded")
	}
	if !bs.Full() {
		t.Fatal("full set not reported full")
	}
	// An existing line can still merge.
	if !bs.Insert(line(1), 2, 2) {
		t.Fatal("merge into full set failed")
	}
}

func TestBypassSetCompleteFence(t *testing.T) {
	bs := NewBypassSet(8, false)
	bs.Insert(line(1), 1, 5)
	bs.Insert(line(2), 1, 7)
	bs.Insert(line(3), 1, 9)
	bs.CompleteFence(7) // drop entries protected by fences <= 7
	if hit, _ := bs.Match(line(1)); hit {
		t.Fatal("entry of completed fence survived")
	}
	if hit, _ := bs.Match(line(2)); hit {
		t.Fatal("entry of completed fence survived")
	}
	if hit, _ := bs.Match(line(3)); !hit {
		t.Fatal("entry of younger fence dropped")
	}
	bs.Clear()
	if bs.Len() != 0 {
		t.Fatal("clear left entries")
	}
}

// Property: with the Bloom front end enabled, Match never differs from
// the plain list on hit/miss (no false negatives; false positives only
// skip the filter, not change the result).
func TestBloomEquivalenceQuick(t *testing.T) {
	f := func(ins []uint8, probes []uint8) bool {
		plain := NewBypassSet(32, false)
		bloom := NewBypassSet(32, true)
		for _, i := range ins {
			plain.Insert(line(int(i)), 1, 1)
			bloom.Insert(line(int(i)), 1, 1)
		}
		for _, p := range probes {
			h1, w1 := plain.Match(line(int(p)))
			h2, w2 := bloom.Match(line(int(p)))
			if h1 != h2 || w1 != w2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBloomFiltersMisses(t *testing.T) {
	bs := NewBypassSet(32, true)
	bs.Insert(line(1), 1, 1)
	for i := 2; i < 200; i++ {
		bs.Match(line(i))
	}
	if bs.BloomFiltered == 0 {
		t.Fatal("bloom filter never filtered anything")
	}
}

func TestContains(t *testing.T) {
	bs := NewBypassSet(8, false)
	bs.Insert(line(4), 1, 1)
	if !bs.Contains(line(4)) || bs.Contains(line(5)) {
		t.Fatal("Contains wrong")
	}
	// Contains must not touch lookup statistics.
	if bs.Lookups != 0 {
		t.Fatal("Contains counted as a lookup")
	}
}

func TestLinesSnapshot(t *testing.T) {
	bs := NewBypassSet(8, false)
	bs.Insert(line(1), 1, 1)
	bs.Insert(line(2), 1, 1)
	ls := bs.Lines()
	if len(ls) != 2 || ls[0] != line(1) || ls[1] != line(2) {
		t.Fatalf("snapshot %v", ls)
	}
}
