// Package mem provides the address arithmetic and the functional memory
// state shared by every component of the simulated multicore.
//
// The simulator separates functional state from timing state: word values
// live in a single authoritative Store, while caches, the directory and
// the network model *when* accesses perform. A load reads the Store at the
// cycle it performs; a store writes it at the cycle its coherence
// transaction completes. See DESIGN.md §3 for why this preserves the
// TSO-visible behaviors the paper studies.
package mem

import "fmt"

// Addr is a byte address in the simulated physical address space.
type Addr uint32

// Line identifies a cache line: the byte address with the offset bits
// cleared. All coherence, directory, Bypass Set and network state is keyed
// by Line.
type Line uint32

const (
	// LineSize is the cache line size in bytes (Table 2 of the paper).
	LineSize = 32
	// WordSize is the word size in bytes; all ISA accesses are one word.
	WordSize = 4
	// WordsPerLine is the number of words in a line.
	WordsPerLine = LineSize / WordSize
	lineMask     = LineSize - 1
)

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(uint32(a) &^ lineMask) }

// WordIndex returns the index (0..WordsPerLine-1) of a's word within its line.
func WordIndex(a Addr) uint { return (uint(a) & lineMask) / WordSize }

// WordMaskOf returns a one-hot bitmask selecting a's word within its line.
// Conditional Order requests (SW+) carry these masks so sharers can tell
// true sharing from false sharing.
func WordMaskOf(a Addr) uint8 { return 1 << WordIndex(a) }

// Align rounds a up to the next multiple of align (a power of two).
func Align(a Addr, align Addr) Addr { return (a + align - 1) &^ (align - 1) }

// HomeBank returns the home L2 bank / directory module of a line when
// lines are interleaved across nbanks banks (full-mapped NUMA directory,
// Table 2). WeeFence's single-module confinement rule is evaluated against
// this mapping.
func HomeBank(l Line, nbanks int) int {
	return int(uint32(l)/LineSize) % nbanks
}

// Store is the authoritative word-value state of the simulated machine.
// It is purely functional: it has no timing of its own.
type Store struct {
	words map[Addr]uint32
}

// NewStore returns an empty Store. Unwritten words read as zero.
func NewStore() *Store { return &Store{words: make(map[Addr]uint32)} }

// Load returns the current value of the word at a. a must be word aligned.
func (s *Store) Load(a Addr) uint32 {
	if a%WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned load at %#x", uint32(a)))
	}
	return s.words[a]
}

// StoreWord sets the value of the word at a. a must be word aligned.
func (s *Store) StoreWord(a Addr, v uint32) {
	if a%WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned store at %#x", uint32(a)))
	}
	s.words[a] = v
}

// ForEach calls f for every word that has ever been written, in
// unspecified order. The invariant oracle uses it to seed its shadow
// memory from a workload's pre-initialized state.
func (s *Store) ForEach(f func(a Addr, v uint32)) {
	for a, v := range s.words {
		f(a, v)
	}
}

// Allocator hands out regions of the simulated address space. Workloads
// use it to lay out their shared data structures; tests use the recorded
// symbols to locate them afterwards.
type Allocator struct {
	next    Addr
	symbols map[string]Region
}

// Region is a named allocation.
type Region struct {
	Base Addr
	Size Addr
}

// NewAllocator returns an allocator starting at base (word aligned).
func NewAllocator(base Addr) *Allocator {
	return &Allocator{next: Align(base, WordSize), symbols: make(map[string]Region)}
}

// Alloc reserves size bytes aligned to align and records it under name.
// A name may be empty for anonymous allocations.
func (al *Allocator) Alloc(name string, size, align Addr) Addr {
	if align == 0 {
		align = WordSize
	}
	base := Align(al.next, align)
	al.next = base + size
	if name != "" {
		if _, dup := al.symbols[name]; dup {
			panic("mem: duplicate symbol " + name)
		}
		al.symbols[name] = Region{Base: base, Size: size}
	}
	return base
}

// AllocLines reserves n whole cache lines aligned to a line boundary.
// Workloads use this when they need to control false sharing.
func (al *Allocator) AllocLines(name string, n int) Addr {
	return al.Alloc(name, Addr(n)*LineSize, LineSize)
}

// Lookup returns the region recorded under name.
func (al *Allocator) Lookup(name string) (Region, bool) {
	r, ok := al.symbols[name]
	return r, ok
}

// Privacy classifies address ranges as thread-private or shared.
// WeeFence's Private Access Filtering (referenced by the paper in §7.2)
// excludes pending stores to private data from a fence's Pending Set:
// no other thread ever accesses them, so they cannot participate in a
// dependence cycle, and keeping them out of the PS keeps the PS confined
// to one directory module. Ranges default to private; workloads mark
// their shared structures.
type Privacy struct {
	ranges []Region
}

// NewPrivacy returns an empty map (everything private).
func NewPrivacy() *Privacy { return &Privacy{} }

// MarkShared registers [base, base+size) as shared.
func (p *Privacy) MarkShared(base, size Addr) {
	p.ranges = append(p.ranges, Region{Base: base, Size: size})
}

// MarkRegion registers a named allocation as shared.
func (p *Privacy) MarkRegion(r Region) { p.MarkShared(r.Base, r.Size) }

// Shared reports whether any word of line l lies in a shared range.
func (p *Privacy) Shared(l Line) bool {
	lo, hi := Addr(l), Addr(l)+LineSize
	for _, r := range p.ranges {
		if lo < r.Base+r.Size && r.Base < hi {
			return true
		}
	}
	return false
}
