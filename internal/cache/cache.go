// Package cache models the on-chip caches: per-core private L1s and the
// banked shared L2, with MESI line states and LRU replacement (Table 2 of
// the paper). Caches here track timing/coherence state only; word values
// live in the functional store (see mem and DESIGN.md §3).
//
// LRU order is kept by position: each set is a run of packed tags, most
// recently used first. A tag is the line address OR'd with its MESI
// state in the address's always-zero low bits; the tag 0 is Invalid.
// A cache allocates its tags on its first Install and answers every
// access before it as a miss, so a small machine pays only for the
// caches its programs fill.
package cache

import (
	"slices"

	"asymfence/internal/mem"
)

// State is a MESI cache line state.
type State uint8

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the one-letter MESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// stateBits masks a tag's state: the bits below the line size.
const stateBits = mem.LineSize - 1

// Cache is a set-associative, write-back cache with LRU replacement.
type Cache struct {
	// tags holds set i at [i*assoc, (i+1)*assoc), most recent first;
	// nil until the first Install.
	tags    []uint32
	setMask uint32
	assoc   int

	// Statistics.
	Hits, Misses, Evictions, DirtyEvictions uint64
}

// New builds a cache of sizeBytes with the given associativity over
// mem.LineSize lines. sizeBytes must be a whole number of lines that
// divides into a power-of-two number of sets.
func New(sizeBytes, assoc int) *Cache {
	lines := sizeBytes / mem.LineSize
	numSets := lines / assoc
	if sizeBytes%mem.LineSize != 0 || numSets == 0 || lines%assoc != 0 || numSets&(numSets-1) != 0 {
		panic("cache: bad geometry")
	}
	return &Cache{setMask: uint32(numSets - 1), assoc: assoc}
}

// find returns l's set and the slot holding a valid copy of l, or -1. A
// cache never filled has no sets and holds nothing.
func (c *Cache) find(l mem.Line) ([]uint32, int) {
	if c.tags == nil {
		return nil, -1
	}
	first := int(uint32(l)/mem.LineSize&c.setMask) * c.assoc
	set := c.tags[first : first+c.assoc]
	for i, t := range set {
		// Only a valid tag for l differs from l in its state bits alone.
		if t^uint32(l)-1 < stateBits {
			return set, i
		}
	}
	return set, -1
}

// toFront moves slot i's tag to the front of set, shifting the more
// recent tags back one slot.
func toFront(set []uint32, i int) {
	t := set[i]
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = t
}

// Lookup returns the line's state, touching LRU on hit. It counts a hit or
// miss, so use Peek for non-access inspection.
func (c *Cache) Lookup(l mem.Line) (State, bool) {
	if set, i := c.find(l); i >= 0 {
		toFront(set, i)
		c.Hits++
		return State(set[0] & stateBits), true
	}
	c.Misses++
	return Invalid, false
}

// Peek returns the line's state without touching LRU or hit/miss counters.
func (c *Cache) Peek(l mem.Line) (State, bool) {
	if set, i := c.find(l); i >= 0 {
		return State(set[i] & stateBits), true
	}
	return Invalid, false
}

// Eviction describes the victim displaced by an Install.
type Eviction struct {
	Line  mem.Line
	Dirty bool // the victim was in Modified state (needs writeback)
}

// Install places line l in state s at the front of its set, in its first
// Invalid slot or else over the set's LRU line, and returns the eviction,
// if any. Installing over an existing copy of l just updates its state.
// l must be line-aligned: its low bits carry the state.
func (c *Cache) Install(l mem.Line, s State) (ev Eviction, evicted bool) {
	if s == Invalid {
		panic("cache: installing Invalid")
	}
	if uint32(l)&stateBits != 0 {
		panic("cache: unaligned line")
	}
	if c.tags == nil {
		c.tags = make([]uint32, (int(c.setMask)+1)*c.assoc)
	}
	set, i := c.find(l)
	if i < 0 {
		if i = slices.Index(set, 0); i < 0 {
			i = len(set) - 1
			ev = Eviction{Line: mem.Line(set[i] &^ stateBits), Dirty: State(set[i]&stateBits) == Modified}
			evicted = true
			c.Evictions++
			if ev.Dirty {
				c.DirtyEvictions++
			}
		}
	}
	set[i] = uint32(l) | uint32(s)
	toFront(set, i)
	return ev, evicted
}

// SetState changes the state of a resident line in place (e.g. E->M
// silent upgrade, M->S downgrade). It is a no-op if the line is absent.
func (c *Cache) SetState(l mem.Line, s State) {
	if set, i := c.find(l); i >= 0 {
		if s == Invalid {
			set[i] = 0
		} else {
			set[i] = uint32(l) | uint32(s)
		}
	}
}

// Invalidate removes the line, returning whether it was present and dirty.
func (c *Cache) Invalidate(l mem.Line) (wasPresent, wasDirty bool) {
	if set, i := c.find(l); i >= 0 {
		wasPresent = true
		wasDirty = State(set[i]&stateBits) == Modified
		set[i] = 0
	}
	return
}

// Occupied returns the number of valid lines (used by tests).
func (c *Cache) Occupied() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}
