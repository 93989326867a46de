package tso

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/workloads/litmus"
)

// mapState is the state the packed keys replaced, kept with mapEnumerate
// as the reference model for TestMatchesMapModel: memory is a map from
// every written address (and every region word) to its value, each
// successor is a clone, and the key writes all 32 registers of every
// thread and the memory map's entries sorted by address.
type mapState struct {
	threads []thread
	memory  map[mem.Addr]uint32
}

func (s *mapState) clone() *mapState {
	n := &mapState{
		threads: make([]thread, len(s.threads)),
		memory:  make(map[mem.Addr]uint32, len(s.memory)),
	}
	for i, t := range s.threads {
		n.threads[i] = t
		n.threads[i].buf = append([]sbEntry(nil), t.buf...)
	}
	for a, v := range s.memory {
		n.memory[a] = v
	}
	return n
}

func (s *mapState) key() string {
	buf := make([]byte, 0, 128)
	put32 := func(v uint32) {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	for _, t := range s.threads {
		put32(uint32(t.pc))
		if t.halted {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		for _, v := range t.regs {
			put32(v)
		}
		put32(uint32(len(t.buf)))
		for _, e := range t.buf {
			put32(uint32(e.addr))
			put32(e.val)
		}
	}
	addrs := make([]mem.Addr, 0, len(s.memory))
	for a := range s.memory {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		put32(uint32(a))
		put32(s.memory[a])
	}
	return string(buf)
}

func (s *mapState) load(t int, addr mem.Addr) uint32 {
	th := &s.threads[t]
	for i := len(th.buf) - 1; i >= 0; i-- {
		if th.buf[i].addr == addr {
			return th.buf[i].val
		}
	}
	return s.memory[addr]
}

// mapEnumerate is Enumerate over mapState: it generates every successor
// of a popped state, then keys each and pushes the new ones in order.
func mapEnumerate(progs []*isa.Program, shared mem.Region, cfg Config) (Result, error) {
	maxStates := cfg.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	res := Result{Outcomes: litmus.NewOutcomeSet(), Complete: true}

	init := &mapState{threads: make([]thread, len(progs)), memory: make(map[mem.Addr]uint32)}
	for i := 0; i < int(shared.Size/mem.WordSize); i++ {
		init.memory[shared.Base+mem.Addr(i)*mem.WordSize] = litmus.InitWord(i)
	}
	for t := range progs {
		if err := runLocal(&init.threads[t], progs[t], cfg.Semantics); err != nil {
			return res, fmt.Errorf("thread %d: %w", t, err)
		}
	}

	visited := map[string]struct{}{init.key(): {}}
	stack := []*mapState{init}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		final := true
		var succs []*mapState
		for t := range st.threads {
			th := &st.threads[t]
			if len(th.buf) > 0 {
				final = false
				n := st.clone()
				e := n.threads[t].buf[0]
				n.threads[t].buf = n.threads[t].buf[1:]
				n.memory[e.addr] = e.val
				succs = append(succs, n)
			}
			if th.halted {
				continue
			}
			final = false
			in := progs[t].Instrs[th.pc]
			switch in.Op {
			case isa.St:
				n := st.clone()
				nt := &n.threads[t]
				addr := mem.Addr(nt.regs.Get(in.Src1) + uint32(in.Imm))
				nt.buf = append(nt.buf, sbEntry{addr: addr, val: nt.regs.Get(in.Src2)})
				nt.pc++
				succs = append(succs, n)
			case isa.Ld:
				n := st.clone()
				nt := &n.threads[t]
				addr := mem.Addr(nt.regs.Get(in.Src1) + uint32(in.Imm))
				nt.regs.Set(in.Dst, n.load(t, addr))
				nt.pc++
				succs = append(succs, n)
			case isa.Xchg:
				if len(th.buf) != 0 {
					continue
				}
				n := st.clone()
				nt := &n.threads[t]
				addr := mem.Addr(nt.regs.Get(in.Src1) + uint32(in.Imm))
				old := n.memory[addr]
				n.memory[addr] = nt.regs.Get(in.Src2)
				nt.regs.Set(in.Dst, old)
				nt.pc++
				succs = append(succs, n)
			case isa.SFence, isa.WFence:
				if len(th.buf) != 0 {
					continue
				}
				n := st.clone()
				n.threads[t].pc++
				succs = append(succs, n)
			default:
				return res, fmt.Errorf("thread %d parked at unexpected op %v", t, in.Op)
			}
		}
		if final {
			res.Outcomes.Add(litmus.ExtractOutcome(len(st.threads), shared,
				func(t int, r isa.Reg) uint32 { return st.threads[t].regs.Get(r) },
				func(a mem.Addr) uint32 { return st.memory[a] },
				func(f func(a mem.Addr, v uint32)) {
					for a, v := range st.memory {
						f(a, v)
					}
				}))
			continue
		}
		for _, n := range succs {
			for t := range n.threads {
				if !n.threads[t].halted {
					if err := runLocal(&n.threads[t], progs[t], cfg.Semantics); err != nil {
						return res, fmt.Errorf("thread %d: %w", t, err)
					}
				}
			}
			k := n.key()
			if _, ok := visited[k]; ok {
				continue
			}
			if len(visited) >= maxStates {
				res.Complete = false
				continue
			}
			visited[k] = struct{}{}
			stack = append(stack, n)
		}
	}
	res.States = len(visited)
	return res, nil
}

// mangle copies progs, replacing about a quarter of the instructions
// with nops, as the minimizer does, and shifting half of the immediates
// that load a region address: by 1-3 bytes (an unaligned word inside
// the region) or past either end of it. Both make threads write words
// outside the region's word slots.
func mangle(rng *rand.Rand, progs []*isa.Program, shared mem.Region) []*isa.Program {
	shifts := []int32{1, 2, 3, -mem.WordSize, mem.LineSize, 4 * mem.LineSize}
	out := make([]*isa.Program, len(progs))
	for i, p := range progs {
		cp := *p
		cp.Instrs = slices.Clone(p.Instrs)
		for j, in := range cp.Instrs {
			switch {
			case in.Op == isa.Halt:
			case rng.IntN(4) == 0:
				cp.Instrs[j] = isa.Instr{Op: isa.Nop}
			case in.Op == isa.Li && mem.Addr(in.Imm)-shared.Base < shared.Size && rng.IntN(2) == 0:
				cp.Instrs[j].Imm += shifts[rng.IntN(len(shifts))]
			}
		}
		out[i] = &cp
	}
	return out
}

// TestMatchesMapModel runs Enumerate and the map-backed reference model
// on the same programs under both semantics and compares States,
// Complete and the outcome keys. The capped cases stop both explorations
// part way, so they also check that successors are pushed in the
// model's order: a complete exploration reaches the same states in any
// order.
func TestMatchesMapModel(t *testing.T) {
	gen := func(seed uint64, cores, ops, lines int) litmus.GenResult {
		return litmus.Generate(mem.NewAllocator(0x1000), litmus.GenConfig{
			Seed: seed, NCores: cores, OpsPerCore: ops, SharedLines: lines,
		})
	}
	compare := func(t *testing.T, name string, progs []*isa.Program, shared mem.Region, maxStates int) (extra int) {
		t.Helper()
		for _, sem := range []Semantics{Strong, Relaxed} {
			cfg := Config{Semantics: sem, MaxStates: maxStates}
			got, gerr := Enumerate(progs, shared, cfg)
			want, werr := mapEnumerate(progs, shared, cfg)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s %v: error %v, model %v", name, sem, gerr, werr)
			}
			if got.States != want.States || got.Complete != want.Complete {
				t.Fatalf("%s %v: %d states (complete %v), model %d (complete %v)",
					name, sem, got.States, got.Complete, want.States, want.Complete)
			}
			gk, wk := got.Outcomes.Keys(), want.Outcomes.Keys()
			for _, k := range gk {
				if !want.Outcomes.Has(k) {
					t.Fatalf("%s %v: outcome %q is not the model's (%d outcomes, model %d)", name, sem, k, len(gk), len(wk))
				}
			}
			for _, k := range wk {
				if !got.Outcomes.Has(k) {
					t.Fatalf("%s %v: model outcome %q is missing (%d outcomes, model %d)", name, sem, k, len(gk), len(wk))
				}
			}
			for _, k := range gk {
				if strings.Contains(k, "@") {
					extra++
				}
			}
		}
		return extra
	}

	t.Run("default", func(t *testing.T) {
		for seed := uint64(1); seed <= 200; seed++ {
			g := conformSeed(seed)
			compare(t, fmt.Sprintf("seed %d", seed), g.Programs, g.Shared, 0)
		}
	})
	t.Run("2x12-2lines", func(t *testing.T) {
		for seed := uint64(1); seed <= 40; seed++ {
			g := gen(seed, 2, 12, 2)
			compare(t, fmt.Sprintf("seed %d", seed), g.Programs, g.Shared, 0)
		}
	})
	t.Run("capped", func(t *testing.T) {
		for seed := uint64(1); seed <= 6; seed++ {
			g := gen(seed, 4, 8, 1)
			compare(t, fmt.Sprintf("4x8 seed %d", seed), g.Programs, g.Shared, 5000)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			g := gen(seed, 8, 24, 1)
			compare(t, fmt.Sprintf("8x24 seed %d", seed), g.Programs, g.Shared, 2000)
		}
	})
	t.Run("mangled", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(1, 0))
		extra := 0
		for seed := uint64(1); seed <= 300; seed++ {
			g := conformSeed(seed)
			extra += compare(t, fmt.Sprintf("seed %d", seed), mangle(rng, g.Programs, g.Shared), g.Shared, 0)
		}
		if extra == 0 {
			t.Fatal("no mangled program wrote outside the region")
		}
		t.Logf("%d outcomes carry words outside the region", extra)
	})
}
