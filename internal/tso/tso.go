// Package tso is a reference TSO abstract machine over the simulated
// ISA, with a bounded-exhaustive enumerator of reachable final states.
//
// The machine is the textbook x86-TSO operational model: each thread
// owns a FIFO store buffer; stores enter the buffer and drain to shared
// memory at nondeterministic later points; loads forward from the
// newest matching buffered store, else read memory; fences and atomic
// exchanges require an empty buffer. Enumerate explores every
// interleaving of thread steps and buffer flushes (with thread-local
// instructions collapsed — they commute with everything), memoizing
// visited states, and returns the exact set of reachable final
// outcomes for programs whose state space fits the configured cap.
//
// A visited state is kept only as a packed key: per thread its pc, the
// registers its program writes and its store buffer, then memory. The
// search decodes each popped key into one reused state and encodes each
// successor into one reused buffer: a new state costs one string.
//
// Local instructions compute through internal/isa (Instr.Eval and
// Instr.Taken), as the cycle simulator's cores and runtime/litmusrun
// do, so the three executors share one ISA.
//
// The conformance harness (ROBUSTNESS.md §8) uses this set as the
// ground truth both directions: every cycle-simulator final state must
// be inside the relaxed closure, and every real-hardware final state —
// Go's sync/atomic operations are sequentially consistent, and SC is a
// refinement of TSO — must be inside the strong closure.
package tso

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/workloads/litmus"
)

// Semantics selects how the machine interprets the weak fence.
type Semantics uint8

const (
	// Strong drains the store buffer at both sfence and wfence — the
	// strongest reading of the program, matching hardware where the
	// weak fence is implemented as a real fence (or, on real silicon,
	// where every access is already sequentially consistent).
	Strong Semantics = iota
	// Relaxed treats wfence as a no-op and drains only at sfence — the
	// weakest reading any of the paper's designs is allowed to exhibit
	// (WS+/SW+/Wee silently skip unpaired weak-fence ordering; see the
	// paper §3.3.1). Every Strong behavior is also a Relaxed behavior.
	Relaxed
)

// String returns the semantics name used in reports.
func (s Semantics) String() string {
	if s == Relaxed {
		return "relaxed"
	}
	return "strong"
}

// Regs is one thread's architectural register file. R0 reads as zero
// and discards writes, exactly like the cycle simulator's cores.
type Regs [isa.NumRegs]uint32

// Get returns register x (0 for R0).
func (r *Regs) Get(x isa.Reg) uint32 {
	if x == isa.R0 {
		return 0
	}
	return r[x]
}

// Set writes register x (writes to R0 are discarded).
func (r *Regs) Set(x isa.Reg, v uint32) {
	if x != isa.R0 {
		r[x] = v
	}
}

// Local executes one thread-local instruction (ALU, immediate moves,
// branches, modeled work, stat markers) and returns the next pc.
// handled is false for memory accesses, fences and halt — the ops whose
// semantics differ per execution domain. Values and branch outcomes
// come from isa.Instr's Eval and Taken. The enumerator and
// runtime/litmusrun both run local code through Local.
func Local(in isa.Instr, pc int, r *Regs) (next int, handled bool) {
	a, b := r.Get(in.Src1), r.Get(in.Src2)
	switch {
	case in.IsALU():
		r.Set(in.Dst, in.Eval(a, b))
	case in.IsBranch():
		if in.Taken(a, b) {
			return in.Target, true
		}
	case in.Op == isa.Nop, in.Op == isa.Work, in.Op == isa.Stat:
	default:
		return pc, false
	}
	return pc + 1, true
}

// sbEntry is one buffered store, or one written word outside the region.
type sbEntry struct {
	addr mem.Addr
	val  uint32
}

// thread is one thread's machine state. pc == len(prog.Instrs) or a
// retired Halt marks the thread done (its buffer may still drain).
type thread struct {
	pc     int
	halted bool
	regs   Regs
	buf    []sbEntry
}

// state is one node of the interleaving exploration. Memory is the
// region's words plus every other written word (unaligned ones inside
// the region included) sorted by address; a word in neither reads zero.
type state struct {
	threads []thread
	base    mem.Addr
	region  []uint32
	extra   []sbEntry
}

func newState(nthreads int, shared mem.Region) *state {
	return &state{threads: make([]thread, nthreads), base: shared.Base, region: make([]uint32, shared.Size/mem.WordSize)}
}

// copyFrom makes s a copy of o, reusing s's buffers.
func (s *state) copyFrom(o *state) {
	for t := range o.threads {
		d, src := &s.threads[t], &o.threads[t]
		d.pc, d.halted, d.regs = src.pc, src.halted, src.regs
		d.buf = append(d.buf[:0], src.buf...)
	}
	copy(s.region, o.region)
	s.extra = append(s.extra[:0], o.extra...)
}

// slot returns the index of addr's region word, or -1 when addr is
// outside the region or not word-aligned.
func (s *state) slot(addr mem.Addr) int {
	off := addr - s.base
	if addr >= s.base && off%mem.WordSize == 0 && off/mem.WordSize < mem.Addr(len(s.region)) {
		return int(off / mem.WordSize)
	}
	return -1
}

// find returns where addr is or belongs in extra.
func (s *state) find(addr mem.Addr) (int, bool) {
	return slices.BinarySearchFunc(s.extra, addr, func(e sbEntry, a mem.Addr) int { return cmp.Compare(e.addr, a) })
}

// read returns memory's value at addr.
func (s *state) read(addr mem.Addr) uint32 {
	if i := s.slot(addr); i >= 0 {
		return s.region[i]
	}
	if i, ok := s.find(addr); ok {
		return s.extra[i].val
	}
	return 0
}

// write stores v to memory at addr.
func (s *state) write(addr mem.Addr, v uint32) {
	if i := s.slot(addr); i >= 0 {
		s.region[i] = v
	} else if i, ok := s.find(addr); ok {
		s.extra[i].val = v
	} else {
		s.extra = slices.Insert(s.extra, i, sbEntry{addr: addr, val: v})
	}
}

// load reads addr for thread t: newest buffered store first (TSO store
// forwarding), then memory (unwritten words read zero, matching the
// simulator's functional store).
func (s *state) load(t int, addr mem.Addr) uint32 {
	th := &s.threads[t]
	for i := len(th.buf) - 1; i >= 0; i-- {
		if th.buf[i].addr == addr {
			return th.buf[i].val
		}
	}
	return s.read(addr)
}

// writtenRegs lists, per thread, the registers some instruction of its
// program names as Dst. No other register is ever written, so each
// stays zero and the key leaves it out.
func writtenRegs(progs []*isa.Program) [][]isa.Reg {
	out := make([][]isa.Reg, len(progs))
	for t, p := range progs {
		var named uint64
		for _, in := range p.Instrs {
			named |= 1 << in.Dst
		}
		for r := isa.Reg(1); r < isa.NumRegs; r++ {
			if named>>r&1 != 0 {
				out[t] = append(out[t], r)
			}
		}
	}
	return out
}

// appendKey appends s's canonical key to b: per thread its pc (the top
// bit set when halted), its written registers, its buffer's length and
// entries; then the region's words; then the other written words, to
// the end of the key. Two states have the same key exactly when they
// are the same state.
func (s *state) appendKey(b []byte, regs [][]isa.Reg) []byte {
	put := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	for t := range s.threads {
		th := &s.threads[t]
		w := uint32(th.pc)
		if th.halted {
			w |= 1 << 31
		}
		put(w)
		for _, r := range regs[t] {
			put(th.regs[r])
		}
		put(uint32(len(th.buf)))
		for _, e := range th.buf {
			put(uint32(e.addr))
			put(e.val)
		}
	}
	for _, v := range s.region {
		put(v)
	}
	for _, e := range s.extra {
		put(uint32(e.addr))
		put(e.val)
	}
	return b
}

// decode makes s the state appendKey encoded as k.
func (s *state) decode(k string, regs [][]isa.Reg) {
	p := 0
	next := func() uint32 {
		p += 4
		return uint32(k[p-4]) | uint32(k[p-3])<<8 | uint32(k[p-2])<<16 | uint32(k[p-1])<<24
	}
	for t := range s.threads {
		th := &s.threads[t]
		w := next()
		th.pc, th.halted = int(w&^(1<<31)), w&(1<<31) != 0
		for _, r := range regs[t] {
			th.regs[r] = next()
		}
		th.buf = th.buf[:0]
		for n := next(); n > 0; n-- {
			th.buf = append(th.buf, sbEntry{addr: mem.Addr(next()), val: next()})
		}
	}
	for i := range s.region {
		s.region[i] = next()
	}
	s.extra = s.extra[:0]
	for p < len(k) {
		s.extra = append(s.extra, sbEntry{addr: mem.Addr(next()), val: next()})
	}
}

// maxLocalSteps bounds one local-execution burst; a thread-local
// infinite loop (backward branches over non-memory code) would
// otherwise hang the enumerator.
const maxLocalSteps = 100_000

// ErrRunaway reports a thread that executed maxLocalSteps consecutive
// local instructions — only possible with backward branches, which the
// litmus generator never emits.
var ErrRunaway = errors.New("tso: runaway local execution (backward branch loop?)")

// runLocal advances th through consecutive local instructions (and,
// under Relaxed, weak fences) until it parks at a memory access, fence,
// halt or program end.
func runLocal(th *thread, prog *isa.Program, sem Semantics) error {
	for steps := 0; ; steps++ {
		if steps > maxLocalSteps {
			return ErrRunaway
		}
		if th.pc >= len(prog.Instrs) {
			th.halted = true
			return nil
		}
		in := prog.Instrs[th.pc]
		if in.Op == isa.Halt {
			th.halted = true
			return nil
		}
		if in.Op == isa.WFence && sem == Relaxed {
			th.pc++
			continue
		}
		next, handled := Local(in, th.pc, &th.regs)
		if !handled {
			return nil
		}
		th.pc = next
	}
}

// Result is the outcome of one enumeration.
type Result struct {
	// Outcomes is the set of reachable final states. Exact when
	// Complete; a reachable subset otherwise.
	Outcomes litmus.OutcomeSet
	// Complete reports whether the state space was fully explored
	// within the configured cap.
	Complete bool
	// States is the number of distinct interior states visited.
	States int
}

// DefaultMaxStates bounds the exploration when Config.MaxStates is 0.
const DefaultMaxStates = 400_000

// Config parameterizes Enumerate.
type Config struct {
	// Semantics selects the weak-fence reading (default Strong).
	Semantics Semantics
	// MaxStates caps the distinct states visited; past it the
	// enumeration stops and the result is marked incomplete (default
	// DefaultMaxStates).
	MaxStates int
}

// Enumerate explores every TSO-reachable final state of the program
// group over the shared region (seeded with the litmus initial image)
// and returns the set of final outcomes. An error reports a broken
// program (runaway local loop), never an incomplete exploration — that
// is reported via Result.Complete.
func Enumerate(progs []*isa.Program, shared mem.Region, cfg Config) (Result, error) {
	maxStates := cfg.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	res := Result{Outcomes: litmus.NewOutcomeSet(), Complete: true}
	regs := writtenRegs(progs)

	st, n := newState(len(progs), shared), newState(len(progs), shared)
	for i := range st.region {
		st.region[i] = litmus.InitWord(i)
	}
	for t := range progs {
		if err := runLocal(&st.threads[t], progs[t], cfg.Semantics); err != nil {
			return res, fmt.Errorf("thread %d: %w", t, err)
		}
	}
	key := st.appendKey(nil, regs)
	k0 := string(key)
	visited := map[string]struct{}{k0: {}}
	stack := []string{k0}

	// push runs n's live threads to their next park point and pushes
	// n's key unless visited; only a new key becomes a string.
	push := func() error {
		for t := range n.threads {
			if !n.threads[t].halted {
				if err := runLocal(&n.threads[t], progs[t], cfg.Semantics); err != nil {
					return fmt.Errorf("thread %d: %w", t, err)
				}
			}
		}
		key = n.appendKey(key[:0], regs)
		if _, ok := visited[string(key)]; ok {
			return nil
		}
		if len(visited) >= maxStates {
			res.Complete = false
			return nil
		}
		k := string(key)
		visited[k] = struct{}{}
		stack = append(stack, k)
		return nil
	}

	for len(stack) > 0 {
		st.decode(stack[len(stack)-1], regs)
		stack = stack[:len(stack)-1]

		// Each thread is parked at a memory access, fence or halt.
		// Successors, thread by thread: flush the oldest buffered store,
		// then perform the parked operation (when enabled).
		final := true
		for t := range st.threads {
			th := &st.threads[t]
			if len(th.buf) > 0 {
				final = false
				n.copyFrom(st)
				nt := &n.threads[t]
				e := nt.buf[0]
				nt.buf = append(nt.buf[:0], nt.buf[1:]...)
				n.write(e.addr, e.val)
				if err := push(); err != nil {
					return res, err
				}
			}
			if th.halted {
				continue
			}
			final = false
			in := progs[t].Instrs[th.pc]
			if (in.Op == isa.Xchg || in.IsFence()) && len(th.buf) != 0 {
				// Fences and atomic exchanges drain: enabled only on an
				// empty buffer. (A relaxed-mode wfence never parks here —
				// runLocal stepped over it.)
				continue
			}
			n.copyFrom(st)
			nt := &n.threads[t]
			addr := mem.Addr(nt.regs.Get(in.Src1) + uint32(in.Imm))
			switch in.Op {
			case isa.St:
				nt.buf = append(nt.buf, sbEntry{addr: addr, val: nt.regs.Get(in.Src2)})
			case isa.Ld:
				nt.regs.Set(in.Dst, n.load(t, addr))
			case isa.Xchg:
				// Atomic exchange: x86-style locked RMW, a full fence —
				// reads and writes memory directly.
				old := n.read(addr)
				n.write(addr, nt.regs.Get(in.Src2))
				nt.regs.Set(in.Dst, old)
			case isa.SFence, isa.WFence:
			default:
				return res, fmt.Errorf("thread %d parked at unexpected op %v", t, in.Op)
			}
			nt.pc++
			if err := push(); err != nil {
				return res, err
			}
		}
		if final {
			res.Outcomes.Add(st.outcome(shared))
		}
	}
	res.States = len(visited)
	return res, nil
}

// outcome converts a final machine state into the canonical outcome.
func (s *state) outcome(shared mem.Region) litmus.Outcome {
	return litmus.ExtractOutcome(len(s.threads), shared,
		func(t int, r isa.Reg) uint32 { return s.threads[t].regs.Get(r) },
		s.read,
		func(f func(a mem.Addr, v uint32)) {
			for _, e := range s.extra {
				f(e.addr, e.val)
			}
		})
}
