package cache

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"asymfence/internal/mem"
)

func line(i int) mem.Line { return mem.Line(i * mem.LineSize) }

func TestHitMiss(t *testing.T) {
	c := New(1024, 4) // 32 lines, 8 sets
	if st, ok := c.Lookup(line(1)); ok || st != Invalid {
		t.Fatal("empty cache hit")
	}
	c.Install(line(1), Shared)
	if st, ok := c.Lookup(line(1)); !ok || st != Shared {
		t.Fatal("installed line missing")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hit/miss accounting: %d/%d", c.Hits, c.Misses)
	}
}

// TestFreshCacheIsEmpty: a cache never filled has no tags yet answers
// Lookup, Peek, SetState and Invalidate as the stamp model's empty cache
// does, Lookup counting a miss, without allocating; the first Install
// allocates the sets, and the line then hits.
func TestFreshCacheIsEmpty(t *testing.T) {
	const size, assoc = 32 * 1024, 4
	c, ref := New(size, assoc), newRefCache(size, assoc)
	l := line(5)
	got := fmt.Sprint(c.Lookup(l))
	got += fmt.Sprint(c.Peek(l))
	c.SetState(l, Modified)
	got += fmt.Sprint(c.Invalidate(l))
	got += fmt.Sprint(c.Hits, c.Misses, c.Occupied())
	want := fmt.Sprint(ref.Lookup(l))
	want += fmt.Sprint(ref.Peek(l))
	ref.SetState(l, Modified)
	want += fmt.Sprint(ref.Invalidate(l))
	want += fmt.Sprint(ref.Hits, ref.Misses, ref.Occupied())
	if got != want {
		t.Fatalf("Lookup, Peek, SetState, Invalidate on a fresh cache: got %q, want %q (results, then hits, misses, occupied)", got, want)
	}
	access := func() {
		c.Lookup(l)
		c.Peek(l)
		c.SetState(l, Modified)
		c.Invalidate(l)
	}
	if n := testing.AllocsPerRun(100, access); n != 0 {
		t.Errorf("accesses to a fresh cache allocated %v times per run, want 0", n)
	}
	if c.tags != nil || c.Occupied() != 0 || c.Misses != 1+101 {
		t.Fatalf("after 102 Lookups: tags allocated=%v, occupied=%d, misses=%d; want false, 0, 102", c.tags != nil, c.Occupied(), c.Misses)
	}
	c.Install(l, Exclusive)
	if st, ok := c.Lookup(l); !ok || st != Exclusive || c.Hits != 1 || c.Occupied() != 1 {
		t.Fatalf("after the first Install: Lookup = %v %v, hits %d, occupied %d; want E true 1 1", st, ok, c.Hits, c.Occupied())
	}
}

func TestStateTransitions(t *testing.T) {
	c := New(1024, 4)
	c.Install(line(2), Exclusive)
	c.SetState(line(2), Modified)
	if st, _ := c.Peek(line(2)); st != Modified {
		t.Fatal("E->M upgrade lost")
	}
	c.SetState(line(2), Shared)
	if st, _ := c.Peek(line(2)); st != Shared {
		t.Fatal("M->S downgrade lost")
	}
	present, dirty := c.Invalidate(line(2))
	if !present || dirty {
		t.Fatalf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if _, ok := c.Peek(line(2)); ok {
		t.Fatal("line survived invalidation")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := New(4*mem.LineSize, 2) // 2 sets x 2 ways
	// Fill one set: lines 0, 2, 4 map to set 0 (stride 2 with 2 sets).
	c.Install(line(0), Modified)
	c.Install(line(2), Shared)
	ev, evicted := c.Install(line(4), Shared)
	if !evicted {
		t.Fatal("no eviction from a full set")
	}
	if ev.Line != line(0) || !ev.Dirty {
		t.Fatalf("evicted %#x dirty=%v; want LRU line 0 dirty", uint32(ev.Line), ev.Dirty)
	}
}

func TestLRUOrder(t *testing.T) {
	c := New(4*mem.LineSize, 2)
	c.Install(line(0), Shared)
	c.Install(line(2), Shared)
	c.Lookup(line(0)) // touch 0: now 2 is LRU
	ev, evicted := c.Install(line(4), Shared)
	if !evicted || ev.Line != line(2) {
		t.Fatalf("evicted %#x, want line 2 (LRU)", uint32(ev.Line))
	}
}

func TestReinstallUpdatesState(t *testing.T) {
	c := New(1024, 4)
	c.Install(line(3), Shared)
	_, evicted := c.Install(line(3), Modified)
	if evicted {
		t.Fatal("reinstall evicted something")
	}
	if st, _ := c.Peek(line(3)); st != Modified {
		t.Fatal("reinstall did not update state")
	}
	if c.Occupied() != 1 {
		t.Fatalf("occupancy %d, want 1", c.Occupied())
	}
}

// Property: a line just installed is always findable until something in
// its set evicts it, and occupancy never exceeds capacity.
func TestCacheInvariantsQuick(t *testing.T) {
	c := New(2048, 4) // 64 lines
	capLines := 64
	f := func(ops []uint16) bool {
		for _, op := range ops {
			l := line(int(op) % 512)
			switch op % 3 {
			case 0:
				c.Install(l, Shared)
				if _, ok := c.Peek(l); !ok {
					return false
				}
			case 1:
				c.Lookup(l)
			case 2:
				c.Invalidate(l)
				if _, ok := c.Peek(l); ok {
					return false
				}
			}
			if c.Occupied() > capLines {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// An unaligned line's low bits would land in the tag's state bits.
func TestInstallPanicsOnUnalignedLine(t *testing.T) {
	mustPanic(t, "Install of an unaligned line", func() { New(1024, 4).Install(line(1)+4, Shared) })
}

// Sets are indexed by a mask.
func TestNewPanicsOnNonPowerOfTwoSets(t *testing.T) {
	mustPanic(t, "New with 3 sets", func() { New(3*4*mem.LineSize, 4) })
}

func TestNewPanicsOnPartialLine(t *testing.T) {
	mustPanic(t, "New of 1040 bytes", func() { New(1024+mem.LineSize/2, 4) })
}

// refCache is the stamp-based cache the packed tags replaced, kept as
// the reference model for TestMatchesStampModel: each way records the
// stamp of its last Lookup hit or Install, and a new line takes the
// first Invalid way by index or else the way with the oldest stamp.
type refCache struct {
	sets                                    [][]refWay
	stamp                                   uint64
	Hits, Misses, Evictions, DirtyEvictions uint64
}

type refWay struct {
	line  mem.Line
	state State
	lru   uint64
}

func newRefCache(sizeBytes, assoc int) *refCache {
	numSets := sizeBytes / mem.LineSize / assoc
	c := &refCache{sets: make([][]refWay, numSets)}
	for i := range c.sets {
		c.sets[i] = make([]refWay, assoc)
	}
	return c
}

func (c *refCache) set(l mem.Line) []refWay {
	return c.sets[int(uint32(l)/mem.LineSize)%len(c.sets)]
}

func (c *refCache) find(l mem.Line) *refWay {
	set := c.set(l)
	for i := range set {
		if set[i].state != Invalid && set[i].line == l {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) Lookup(l mem.Line) (State, bool) {
	if w := c.find(l); w != nil {
		c.stamp++
		w.lru = c.stamp
		c.Hits++
		return w.state, true
	}
	c.Misses++
	return Invalid, false
}

func (c *refCache) Peek(l mem.Line) (State, bool) {
	if w := c.find(l); w != nil {
		return w.state, true
	}
	return Invalid, false
}

func (c *refCache) Install(l mem.Line, s State) (Eviction, bool) {
	c.stamp++
	if w := c.find(l); w != nil {
		w.state, w.lru = s, c.stamp
		return Eviction{}, false
	}
	set := c.set(l)
	victim := &set[0]
	for i := range set {
		if set[i].state == Invalid {
			victim = &set[i]
			break
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	var ev Eviction
	evicted := victim.state != Invalid
	if evicted {
		c.Evictions++
		ev = Eviction{Line: victim.line, Dirty: victim.state == Modified}
		if ev.Dirty {
			c.DirtyEvictions++
		}
	}
	*victim = refWay{line: l, state: s, lru: c.stamp}
	return ev, evicted
}

func (c *refCache) SetState(l mem.Line, s State) {
	if w := c.find(l); w != nil {
		w.state = s
	}
}

func (c *refCache) Invalidate(l mem.Line) (wasPresent, wasDirty bool) {
	if w := c.find(l); w != nil {
		wasPresent, wasDirty = true, w.state == Modified
		w.state = Invalid
	}
	return
}

func (c *refCache) Occupied() int {
	n := 0
	for _, set := range c.sets {
		for _, w := range set {
			if w.state != Invalid {
				n++
			}
		}
	}
	return n
}

// TestMatchesStampModel drives the cache and the stamp-based reference
// with the same seeded random operations and compares every return
// value, counter and the occupancy after each one. The packed layout
// keeps no stamps, only the recency order of each set, so this checks
// that the order is kept exactly: the same line is evicted every time.
// Half the lines come from three sets, 2*assoc+2 lines each, so those
// sets fill and evict; the other half from four times the capacity.
func TestMatchesStampModel(t *testing.T) {
	const seeds, steps = 3, 4000
	for _, g := range []struct {
		name        string
		size, assoc int
	}{
		{"L1-32KB-4way", 32 * 1024, 4},
		{"L2bank-128KB-8way", 128 * 1024, 8},
		{"2sets-2way", 4 * mem.LineSize, 2},
		{"1set-8way", 8 * mem.LineSize, 8},
	} {
		t.Run(g.name, func(t *testing.T) {
			lines := g.size / mem.LineSize
			numSets := lines / g.assoc
			for seed := uint64(1); seed <= seeds; seed++ {
				rng := rand.New(rand.NewPCG(seed, 0))
				c, ref := New(g.size, g.assoc), newRefCache(g.size, g.assoc)
				for step := 0; step < steps; step++ {
					var l mem.Line
					if rng.IntN(2) == 0 {
						l = line(rng.IntN(min(3, numSets)) + numSets*rng.IntN(2*g.assoc+2))
					} else {
						l = line(rng.IntN(4 * lines))
					}
					var op, got, want string
					switch r := rng.IntN(10); {
					case r < 3:
						op = "Lookup"
						got, want = fmt.Sprint(c.Lookup(l)), fmt.Sprint(ref.Lookup(l))
					case r < 4:
						op = "Peek"
						got, want = fmt.Sprint(c.Peek(l)), fmt.Sprint(ref.Peek(l))
					case r < 7:
						s := State(1 + rng.IntN(3))
						op = "Install " + s.String()
						got, want = fmt.Sprint(c.Install(l, s)), fmt.Sprint(ref.Install(l, s))
					case r < 9:
						s := State(rng.IntN(4))
						op = "SetState " + s.String()
						c.SetState(l, s)
						ref.SetState(l, s)
					default:
						op = "Invalidate"
						got, want = fmt.Sprint(c.Invalidate(l)), fmt.Sprint(ref.Invalidate(l))
					}
					got = fmt.Sprintf("%s; %d %d %d %d %d", got, c.Hits, c.Misses, c.Evictions, c.DirtyEvictions, c.Occupied())
					want = fmt.Sprintf("%s; %d %d %d %d %d", want, ref.Hits, ref.Misses, ref.Evictions, ref.DirtyEvictions, ref.Occupied())
					if got != want {
						t.Fatalf("seed %d step %d: %s %#x: got %q, want %q (results; hits, misses, evictions, dirty evictions, occupied)",
							seed, step, op, uint32(l), got, want)
					}
				}
			}
		})
	}
}
