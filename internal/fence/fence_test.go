package fence

import (
	"testing"

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
	bs := NewBypassSet(4)
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
	bs := NewBypassSet(2)
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
	bs := NewBypassSet(8)
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

func TestContains(t *testing.T) {
	bs := NewBypassSet(8)
	bs.Insert(line(4), 1, 1)
	if !bs.Contains(line(4)) || bs.Contains(line(5)) {
		t.Fatal("Contains wrong")
	}
}

func TestLinesSnapshot(t *testing.T) {
	bs := NewBypassSet(8)
	bs.Insert(line(1), 1, 1)
	bs.Insert(line(2), 1, 1)
	ls := bs.Lines()
	if len(ls) != 2 || ls[0] != line(1) || ls[1] != line(2) {
		t.Fatalf("snapshot %v", ls)
	}
}
