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

import (
	"fmt"
	"math/bits"
)

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
//
// Words live in pages of pageWords words, each allocated on the first
// store to one of its words. The address space is cut into regions of
// regionPages pages, and regions holds the page tables of a window of
// consecutive regions, the first of them region lo. A region's table is
// grown on demand to its highest stored page, and the window to the
// lowest and highest stored regions, so a lone store at 0xFFFFFFFC
// allocates one page and one table of its region's pages (about 10 KiB),
// never a table spanning the address space below it. The allocator
// hands out addresses upward from a base, so a workload's words fill few
// regions densely.
type Store struct {
	lo      uint32    // region number of regions[0]
	regions [][]*page // per region, its pages in address order; nil if unstored
}

// Page geometry: 1 KiB pages of 256 words, 1,024 pages (1 MiB) per region.
const (
	pageShift   = 10
	regionShift = 20
	pageWords   = 1 << (pageShift - 2)
	regionPages = 1 << (regionShift - pageShift)
)

// page holds pageWords consecutive words and marks which of them were
// ever stored to, so ForEach visits exactly the written words, zeros
// included.
type page struct {
	words   [pageWords]uint32
	written [pageWords / 64]uint64
}

// NewStore returns an empty Store. Unwritten words read as zero.
func NewStore() *Store { return &Store{} }

// pageOf returns the page holding a, or nil if no word of it was stored.
func (s *Store) pageOf(a Addr) *page {
	r := uint32(a)>>regionShift - s.lo // a region below lo wraps past the window
	if r >= uint32(len(s.regions)) {
		return nil
	}
	t := s.regions[r]
	if i := uint32(a) >> pageShift % regionPages; i < uint32(len(t)) {
		return t[i]
	}
	return nil
}

// newPage allocates the page holding a, first widening the region window
// and growing the region's table to reach it.
func (s *Store) newPage(a Addr) *page {
	r := uint32(a) >> regionShift
	switch {
	case len(s.regions) == 0:
		s.lo, s.regions = r, make([][]*page, 1)
	case r < s.lo:
		grown := make([][]*page, int(s.lo-r)+len(s.regions))
		copy(grown[s.lo-r:], s.regions)
		s.lo, s.regions = r, grown
	case int(r-s.lo) >= len(s.regions):
		s.regions = append(s.regions, make([][]*page, int(r-s.lo)+1-len(s.regions))...)
	}
	t := &s.regions[r-s.lo]
	i := int(uint32(a) >> pageShift % regionPages)
	if i >= cap(*t) {
		// Double as append would, but never past a whole region.
		grown := make([]*page, len(*t), min(max(i+1, 2*cap(*t)), regionPages))
		copy(grown, *t)
		*t = grown
	}
	if i >= len(*t) {
		*t = (*t)[:i+1] // the entries past len were never set: nil
	}
	p := new(page)
	(*t)[i] = p
	return p
}

// Load returns the current value of the word at a. a must be word aligned.
func (s *Store) Load(a Addr) uint32 {
	if a%WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned load at %#x", uint32(a)))
	}
	if p := s.pageOf(a); p != nil {
		return p.words[uint32(a)/WordSize%pageWords]
	}
	return 0
}

// StoreWord sets the value of the word at a. a must be word aligned.
func (s *Store) StoreWord(a Addr, v uint32) {
	if a%WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned store at %#x", uint32(a)))
	}
	p := s.pageOf(a)
	if p == nil {
		p = s.newPage(a)
	}
	w := uint32(a) / WordSize % pageWords
	p.words[w] = v
	p.written[w/64] |= 1 << (w % 64)
}

// ForEach calls f for every word that has ever been written, zeros
// included, in address order. It walks the allocated pages and, in each,
// the words marked written. The invariant oracle uses it to seed its
// shadow memory from a workload's pre-initialized state, and litmus
// outcome extraction to list the words written outside the shared
// region.
func (s *Store) ForEach(f func(a Addr, v uint32)) {
	for r, t := range s.regions {
		for i, p := range t {
			if p == nil {
				continue
			}
			base := (s.lo+uint32(r))<<regionShift | uint32(i)<<pageShift
			for j, set := range p.written {
				for ; set != 0; set &= set - 1 {
					w := j*64 + bits.TrailingZeros64(set)
					f(Addr(base+uint32(w)*WordSize), p.words[w])
				}
			}
		}
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
