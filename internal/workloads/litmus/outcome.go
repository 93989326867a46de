package litmus

import (
	"sort"
	"strconv"

	"asymfence/internal/isa"
	"asymfence/internal/mem"
)

// Final-state observation mode: a generated litmus instance's outcome is
// the tuple (per-thread observation registers, final shared memory). The
// same Outcome encoding is produced by three independent executors — the
// cycle-accurate simulator, the internal/tso reference machine, and the
// real-goroutine runner in runtime/litmusrun — so their final states can
// be compared across domains (ROBUSTNESS.md §8).

// ObservedRegs lists the registers each thread's outcome records: the
// generator's rotating load-destination window r10..r13 (gOut0..gOut0+3),
// which also covers the classic builders' rOut.
var ObservedRegs = []isa.Reg{gOut0, gOut0 + 1, gOut0 + 2, gOut0 + 3}

// InitWord returns the deterministic nonzero initial value of the i-th
// word of the shared region. Every executor seeds memory with this image
// so loads of never-written words read distinguishable values and final
// states compare equal across domains.
func InitWord(i int) uint32 { return uint32(i+1) * 0x9e3779b1 }

// InitImage materializes the initial image of a shared region as one
// value per word, in address order.
func InitImage(shared mem.Region) []uint32 {
	words := int(shared.Size / mem.WordSize)
	img := make([]uint32, words)
	for i := range img {
		img[i] = InitWord(i)
	}
	return img
}

// Outcome is one observed final state of a litmus instance.
type Outcome struct {
	// Regs holds, per thread, the final values of ObservedRegs.
	Regs [][4]uint32
	// Mem holds the final value of each shared-region word, in address
	// order (len = region words).
	Mem []uint32
	// Extra holds final values of words outside the shared region that
	// some thread wrote (address-sorted). Generated programs never
	// produce these; minimized or hand-built programs may.
	Extra []ExtraWord
}

// ExtraWord is a written word outside the shared region.
type ExtraWord struct {
	Addr mem.Addr
	Val  uint32
}

// Key returns the canonical one-line encoding of the outcome, suitable
// as a set element and stable across executors:
// "t0=r10,r11,r12,r13 t1=... | mem0 mem1 ... @0xaddr=val ...".
func (o Outcome) Key() string {
	b := make([]byte, 0, 48*len(o.Regs)+2+11*len(o.Mem)+22*len(o.Extra))
	for t, r := range o.Regs {
		if t > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(append(b, 't'), int64(t), 10)
		for j, v := range r {
			b = strconv.AppendUint(append(b, "=,,,"[j]), uint64(v), 10)
		}
	}
	b = append(b, " |"...)
	for _, v := range o.Mem {
		b = strconv.AppendUint(append(b, ' '), uint64(v), 10)
	}
	for _, e := range o.Extra {
		b = strconv.AppendUint(append(b, " @0x"...), uint64(e.Addr), 16)
		b = strconv.AppendUint(append(b, '='), uint64(e.Val), 10)
	}
	return string(b)
}

// OutcomeSet is a set of outcome keys.
type OutcomeSet map[string]struct{}

// NewOutcomeSet returns an empty set.
func NewOutcomeSet() OutcomeSet { return make(OutcomeSet) }

// Add inserts an outcome and reports whether it was new.
func (s OutcomeSet) Add(o Outcome) bool {
	k := o.Key()
	if _, ok := s[k]; ok {
		return false
	}
	s[k] = struct{}{}
	return true
}

// AddKey inserts a pre-encoded outcome key.
func (s OutcomeSet) AddKey(k string) { s[k] = struct{}{} }

// Has reports membership of an outcome key.
func (s OutcomeSet) Has(k string) bool {
	_, ok := s[k]
	return ok
}

// Union merges o into s.
func (s OutcomeSet) Union(o OutcomeSet) {
	for k := range o {
		s[k] = struct{}{}
	}
}

// Keys returns the sorted outcome keys (deterministic for reports).
func (s OutcomeSet) Keys() []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ExtractOutcome assembles an Outcome from accessor callbacks, so every
// executor shares one encoding without this package importing any of
// them. reg returns thread t's architectural value of r; load returns
// the final value of address a; forEach iterates every written word.
// forEach may be nil when the executor cannot enumerate writes (the
// outcome then has no Extra entries).
func ExtractOutcome(nthreads int, shared mem.Region,
	reg func(t int, r isa.Reg) uint32,
	load func(a mem.Addr) uint32,
	forEach func(f func(a mem.Addr, v uint32))) Outcome {

	o := Outcome{Regs: make([][4]uint32, nthreads)}
	for t := 0; t < nthreads; t++ {
		for j, r := range ObservedRegs {
			o.Regs[t][j] = reg(t, r)
		}
	}
	words := int(shared.Size / mem.WordSize)
	o.Mem = make([]uint32, words)
	for i := 0; i < words; i++ {
		o.Mem[i] = load(shared.Base + mem.Addr(i)*mem.WordSize)
	}
	if forEach != nil {
		forEach(func(a mem.Addr, v uint32) {
			if a >= shared.Base && a < shared.Base+shared.Size {
				return
			}
			o.Extra = append(o.Extra, ExtraWord{Addr: a, Val: v})
		})
		sort.Slice(o.Extra, func(i, j int) bool { return o.Extra[i].Addr < o.Extra[j].Addr })
	}
	return o
}
