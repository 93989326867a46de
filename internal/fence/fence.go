// Package fence defines the fence-design taxonomy of the paper (Table 1)
// and the Bypass Set, the core-side hardware structure every weak-fence
// design relies on.
package fence

import "asymfence/internal/mem"

// Design selects the machine-wide fence implementation, i.e. the paper's
// design points (Table 1). It determines how WFence instructions behave;
// SFence instructions are always conventional strong fences.
type Design uint8

const (
	// SPlus: all fences are conventional strong fences (wf executes as sf).
	// Lowest hardware complexity, lowest performance.
	SPlus Design = iota
	// WSPlus supports asymmetric groups with at most one weak fence:
	// BS + Order bit + Order operation.
	WSPlus
	// SWPlus supports any asymmetric group: BS with fine-grain (word)
	// info + Conditional Order operation.
	SWPlus
	// WPlus supports any group including all-weak ones: BS + checkpoint +
	// deadlock timeout + rollback recovery.
	WPlus
	// Wee is the WeeFence baseline: BS + global state (distributed GRT and
	// pending sets), with the single-directory-module confinement rule
	// that demotes unconfinable fences to strong fences.
	Wee
)

var designNames = [...]string{
	SPlus: "S+", WSPlus: "WS+", SWPlus: "SW+", WPlus: "W+", Wee: "Wee",
}

// String returns the paper's name for the design.
func (d Design) String() string {
	if int(d) < len(designNames) {
		return designNames[d]
	}
	return "design(?)"
}

// AllDesigns lists every design in the paper's comparison order.
var AllDesigns = []Design{SPlus, WSPlus, SWPlus, WPlus, Wee}

// UsesBS reports whether the design has a Bypass Set at all.
func (d Design) UsesBS() bool { return d != SPlus }

// DefaultBSCapacity is the Bypass Set size (Table 2: up to 32 entries per
// core, 4 B per entry).
const DefaultBSCapacity = 32

// Entry is one Bypass Set record: a line whose post-fence read has retired
// and completed while one or more weak fences are still incomplete.
type Entry struct {
	Line mem.Line
	// WordMask records which words of the line were read (SW+ fine-grain
	// info; line-granularity designs still track it for statistics).
	WordMask uint8
	// FenceSeq is the youngest active fence protecting the entry; the
	// entry is dropped when that fence completes (fences complete in
	// program order, so the youngest completes last).
	FenceSeq uint64
}

// BypassSet is the per-core hardware list in the cache controller
// (paper §3.2). Comparisons against incoming coherence transactions are
// at line granularity; WordMask only refines true- vs false-sharing for
// SW+.
type BypassSet struct {
	capacity int
	entries  []Entry
}

// NewBypassSet builds a Bypass Set with the given capacity (0 means the
// Table 2 default of 32).
func NewBypassSet(capacity int) *BypassSet {
	if capacity <= 0 {
		capacity = DefaultBSCapacity
	}
	return &BypassSet{capacity: capacity}
}

// Len returns the number of entries.
func (b *BypassSet) Len() int { return len(b.entries) }

// Full reports whether another distinct line can not be inserted.
func (b *BypassSet) Full() bool { return len(b.entries) >= b.capacity }

// Insert records a post-fence read. Inserting an already-present line
// merges the word mask and refreshes the protecting fence. It returns
// false when the set is full and the line is new (the caller must stall
// the retiring load).
func (b *BypassSet) Insert(l mem.Line, wordMask uint8, fenceSeq uint64) bool {
	for i := range b.entries {
		if b.entries[i].Line == l {
			b.entries[i].WordMask |= wordMask
			if fenceSeq > b.entries[i].FenceSeq {
				b.entries[i].FenceSeq = fenceSeq
			}
			return true
		}
	}
	if len(b.entries) >= b.capacity {
		return false
	}
	b.entries = append(b.entries, Entry{Line: l, WordMask: wordMask, FenceSeq: fenceSeq})
	return true
}

// Match checks an incoming write transaction against the set (line
// granularity, as the coherence protocol works on line addresses —
// paper §3.2 and Fig. 4a). It returns whether the line matched and the
// union of matched word masks, which SW+ uses to report true sharing.
func (b *BypassSet) Match(l mem.Line) (hit bool, words uint8) {
	for i := range b.entries {
		if b.entries[i].Line == l {
			hit = true
			words |= b.entries[i].WordMask
		}
	}
	return hit, words
}

// Contains reports whether a line is present (used on dirty evictions
// to decide keep-as-sharer writebacks, §5.1).
func (b *BypassSet) Contains(l mem.Line) bool {
	for i := range b.entries {
		if b.entries[i].Line == l {
			return true
		}
	}
	return false
}

// CompleteFence drops every entry whose protecting fence is fenceSeq or
// older.
func (b *BypassSet) CompleteFence(fenceSeq uint64) {
	out := b.entries[:0]
	for _, e := range b.entries {
		if e.FenceSeq > fenceSeq {
			out = append(out, e)
		}
	}
	b.entries = out
}

// Clear empties the set (W+ rollback recovery).
func (b *BypassSet) Clear() {
	b.entries = b.entries[:0]
}

// Lines returns a snapshot of the resident line addresses (test hook).
func (b *BypassSet) Lines() []mem.Line {
	out := make([]mem.Line, len(b.entries))
	for i, e := range b.entries {
		out[i] = e.Line
	}
	return out
}
