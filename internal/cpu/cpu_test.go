package cpu_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
)

// runOne executes a single-threaded program on a 1-core machine and
// returns it for register/memory inspection.
func runOne(t *testing.T, p *isa.Program, store *mem.Store) *sim.Machine {
	t.Helper()
	if store == nil {
		store = mem.NewStore()
	}
	m, err := sim.New(sim.Config{NCores: 1, Design: fence.SPlus}, []*isa.Program{p}, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("%v (cycle %d)", err, m.Cycle())
	}
	return m
}

func TestALUOps(t *testing.T) {
	b := isa.NewBuilder("alu")
	b.Li(1, 100)
	b.Li(2, 7)
	b.Add(3, 1, 2)    // 107
	b.Sub(4, 1, 2)    // 93
	b.Mul(5, 1, 2)    // 700
	b.And(6, 1, 2)    // 100 & 7 = 4
	b.Or(7, 1, 2)     // 103
	b.Xor(8, 1, 2)    // 99
	b.AddI(9, 1, -1)  // 99
	b.AndI(10, 1, 12) // 4
	b.ShlI(11, 2, 3)  // 56
	b.ShrI(12, 1, 2)  // 25
	b.Mov(13, 5)      // 700
	b.Halt()
	m := runOne(t, b.MustBuild(), nil)
	want := map[uint8]uint32{3: 107, 4: 93, 5: 700, 6: 4, 7: 103, 8: 99, 9: 99, 10: 4, 11: 56, 12: 25, 13: 700}
	for r, v := range want {
		if got := m.Core(0).Reg(isa.Reg(r)); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestR0IsHardwiredZero(t *testing.T) {
	b := isa.NewBuilder("r0")
	b.Li(0, 77) // write to r0 must be discarded
	b.AddI(1, 0, 5)
	b.Halt()
	m := runOne(t, b.MustBuild(), nil)
	if got := m.Core(0).Reg(1); got != 5 {
		t.Fatalf("r1 = %d, want 5 (r0 must read as zero)", got)
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..10 with a backward loop.
	b := isa.NewBuilder("loop")
	b.Li(1, 10)
	b.Li(2, 0)
	b.Label("loop")
	b.Add(2, 2, 1)
	b.AddI(1, 1, -1)
	b.Bne(1, isa.R0, "loop")
	b.Halt()
	m := runOne(t, b.MustBuild(), nil)
	if got := m.Core(0).Reg(2); got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
}

func TestSignedCompares(t *testing.T) {
	b := isa.NewBuilder("signed")
	b.Li(1, -5)
	b.Li(2, 3)
	b.Li(10, 0)
	b.Bge(1, 2, "skip") // -5 >= 3 is false
	b.Li(10, 1)
	b.Label("skip")
	b.Li(11, 0)
	b.Blt(1, 2, "take") // -5 < 3 is true
	b.Jmp("end")
	b.Label("take")
	b.Li(11, 1)
	b.Label("end")
	b.Halt()
	m := runOne(t, b.MustBuild(), nil)
	if m.Core(0).Reg(10) != 1 || m.Core(0).Reg(11) != 1 {
		t.Fatalf("signed compares wrong: r10=%d r11=%d", m.Core(0).Reg(10), m.Core(0).Reg(11))
	}
}

// mispredictProgram forces a data-dependent branch whose outcome
// contradicts the BTFN prediction: a forward branch (predicted
// not-taken) that is actually taken, fed by a load so the prediction is
// exercised. The wrong path ends in an Xchg, which executes only at the
// ROB head, and a load of the address the Xchg returns, so the squash
// also cuts a store from sq and an unissued load from lq.
func mispredictProgram() (*isa.Program, *mem.Store) {
	store := mem.NewStore()
	store.StoreWord(0x1000, 1)
	b := isa.NewBuilder("mispredict")
	b.Li(1, 0x1000)
	b.Ld(2, 1, 0)             // loads 1 (slow: memory)
	b.Bne(2, isa.R0, "taken") // forward, predicted not-taken, actually taken
	b.Li(10, 111)             // wrong path
	b.Xchg(12, 10, 1, 8)
	b.Ld(13, 12, 0x1000)
	b.Halt()
	b.Label("taken")
	b.Li(10, 222)
	b.Halt()
	return b.MustBuild(), store
}

func TestBranchMispredictRecovery(t *testing.T) {
	p, store := mispredictProgram()
	m := runOne(t, p, store)
	if got := m.Core(0).Reg(10); got != 222 {
		t.Fatalf("r10 = %d, want 222 (wrong-path result leaked)", got)
	}
	if got := store.Load(0x1008); got != 0 {
		t.Fatalf("mem[0x1008] = %d, want 0 (wrong-path Xchg leaked)", got)
	}
	if m.Core(0).Stats().Mispredicts == 0 {
		t.Fatal("expected a recorded misprediction")
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	b := isa.NewBuilder("fwd")
	b.Li(1, 0x1000)
	b.Li(2, 42)
	b.St(2, 1, 0)
	b.Ld(3, 1, 0) // must see 42 via forwarding, long before the store drains
	b.Li(4, 7)
	b.St(4, 1, 4)
	b.Ld(5, 1, 4)
	b.Halt()
	m := runOne(t, b.MustBuild(), nil)
	if m.Core(0).Reg(3) != 42 || m.Core(0).Reg(5) != 7 {
		t.Fatalf("forwarding wrong: r3=%d r5=%d", m.Core(0).Reg(3), m.Core(0).Reg(5))
	}
}

func TestStoresReachMemory(t *testing.T) {
	store := mem.NewStore()
	b := isa.NewBuilder("st")
	b.Li(1, 0x2000)
	for i := 0; i < 8; i++ {
		b.Li(2, int32(i*i))
		b.St(2, 1, int32(i*4))
	}
	b.Halt() // halt waits for the write buffer to drain
	runOne(t, b.MustBuild(), store)
	for i := 0; i < 8; i++ {
		if got := store.Load(mem.Addr(0x2000 + i*4)); got != uint32(i*i) {
			t.Errorf("mem[%d] = %d, want %d", i, got, i*i)
		}
	}
}

func TestXchgReturnsOldValue(t *testing.T) {
	store := mem.NewStore()
	store.StoreWord(0x1000, 5)
	b := isa.NewBuilder("xchg")
	b.Li(1, 0x1000)
	b.Li(2, 9)
	b.Xchg(3, 2, 1, 0) // r3 = 5; mem = 9
	b.Ld(4, 1, 0)      // r4 = 9
	b.Halt()
	m := runOne(t, b.MustBuild(), store)
	if m.Core(0).Reg(3) != 5 || m.Core(0).Reg(4) != 9 {
		t.Fatalf("xchg: old=%d new=%d", m.Core(0).Reg(3), m.Core(0).Reg(4))
	}
	if store.Load(0x1000) != 9 {
		t.Fatal("xchg store lost")
	}
}

func TestWorkTakesItsCycles(t *testing.T) {
	b := isa.NewBuilder("work")
	b.Work(500)
	b.Halt()
	m := runOne(t, b.MustBuild(), nil)
	if m.Cycle() < 500 {
		t.Fatalf("Work(500) finished in %d cycles", m.Cycle())
	}
	if m.Cycle() > 600 {
		t.Fatalf("Work(500) took %d cycles", m.Cycle())
	}
}

func TestWorkCountsAsInstructions(t *testing.T) {
	b := isa.NewBuilder("workinstr")
	b.Work(100)
	b.Halt()
	m := runOne(t, b.MustBuild(), nil)
	if got := m.Core(0).Stats().RetiredInstrs; got < 100 {
		t.Fatalf("retired %d, want >= 100 (Work models instructions)", got)
	}
}

func TestSFenceDrainsBeforeCompleting(t *testing.T) {
	store := mem.NewStore()
	b := isa.NewBuilder("sfence")
	b.Li(1, 0x3000)
	b.Li(2, 1)
	b.St(2, 1, 0) // cold store: ~200 cycles
	b.SFence()
	b.Halt()
	m := runOne(t, b.MustBuild(), store)
	st := m.Core(0).Stats()
	if st.FenceStallCycles < 100 {
		t.Fatalf("sfence stalled only %d cycles over a cold store", st.FenceStallCycles)
	}
	if st.SFences != 1 {
		t.Fatalf("sfence count %d", st.SFences)
	}
}

func TestWFenceUnderSPlusActsStrong(t *testing.T) {
	store := mem.NewStore()
	b := isa.NewBuilder("wf-splus")
	b.Li(1, 0x3000)
	b.Li(2, 1)
	b.St(2, 1, 0)
	b.WFence()
	b.Halt()
	m := runOne(t, b.MustBuild(), store)
	st := m.Core(0).Stats()
	if st.SFences != 1 || st.WFences != 0 {
		t.Fatalf("WFence under S+ must count as strong: sf=%d wf=%d", st.SFences, st.WFences)
	}
}

// TestRandomProgramsMatchInterpreter cross-checks the pipeline against a
// simple sequential interpreter on randomly generated ALU/branch/memory
// programs (single core, so sequential semantics are the gold standard).
func TestRandomProgramsMatchInterpreter(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog, golden := genProgram(rng)
		store := mem.NewStore()
		m, err := sim.New(sim.Config{NCores: 1, Design: fence.SPlus}, []*isa.Program{prog}, store)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for r := uint8(1); r < 16; r++ {
			if m.Core(0).Reg(isa.Reg(r)) != golden.regs[r] {
				t.Logf("seed %d: r%d = %d, want %d\n%s", seed, r,
					m.Core(0).Reg(isa.Reg(r)), golden.regs[r], prog.String())
				return false
			}
		}
		for a, v := range golden.mem {
			if store.Load(a) != v {
				t.Logf("seed %d: mem[%#x] = %d, want %d", seed, a, store.Load(a), v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

type goldenState struct {
	regs [32]uint32
	mem  map[mem.Addr]uint32
}

// genProgram emits a random program of every ALU op, loads, stores and
// forward skips over every branch kind, and interprets it sequentially.
func genProgram(rng *rand.Rand) (*isa.Program, *goldenState) {
	g := &goldenState{mem: map[mem.Addr]uint32{}}
	b := isa.NewBuilder("random")
	// r1 is the data base; r2..r9 are data registers.
	const base = 0x4000
	b.Li(1, base)
	g.regs[1] = base
	for i := 0; i < 40; i++ {
		dst := isa.Reg(2 + rng.Intn(8))
		s1 := isa.Reg(2 + rng.Intn(8))
		s2 := isa.Reg(2 + rng.Intn(8))
		a, c := g.regs[s1], g.regs[s2]
		imm := int32(rng.Intn(1000) - 500)
		sh := int32(rng.Intn(64)) // shifts use the low 5 bits
		switch rng.Intn(17) {
		case 0:
			b.Li(dst, imm)
			g.regs[dst] = uint32(imm)
		case 1:
			b.Mov(dst, s1)
			g.regs[dst] = a
		case 2:
			b.Add(dst, s1, s2)
			g.regs[dst] = a + c
		case 3:
			b.Sub(dst, s1, s2)
			g.regs[dst] = a - c
		case 4:
			b.Mul(dst, s1, s2)
			g.regs[dst] = a * c
		case 5:
			b.And(dst, s1, s2)
			g.regs[dst] = a & c
		case 6:
			b.Or(dst, s1, s2)
			g.regs[dst] = a | c
		case 7:
			b.Xor(dst, s1, s2)
			g.regs[dst] = a ^ c
		case 8:
			b.AddI(dst, s1, imm)
			g.regs[dst] = a + uint32(imm)
		case 9:
			b.AndI(dst, s1, imm)
			g.regs[dst] = a & uint32(imm)
		case 10:
			b.ShlI(dst, s1, sh)
			g.regs[dst] = a << (sh % 32)
		case 11:
			b.ShrI(dst, s1, sh)
			g.regs[dst] = a >> (sh % 32)
		case 12:
			off := int32(rng.Intn(16) * 4)
			b.St(s1, 1, off)
			g.mem[mem.Addr(base)+mem.Addr(off)] = a
		case 13:
			off := int32(rng.Intn(16) * 4)
			b.Ld(dst, 1, off)
			g.regs[dst] = g.mem[mem.Addr(base)+mem.Addr(off)]
		default:
			// A short forward skip whose outcome depends on live values.
			l := b.NewLabel("skip")
			var taken bool
			switch rng.Intn(5) {
			case 0:
				b.Beq(s1, s2, l)
				taken = a == c
			case 1:
				b.Bne(s1, s2, l)
				taken = a != c
			case 2:
				b.Blt(s1, s2, l)
				taken = int32(a) < int32(c)
			case 3:
				b.Bge(s1, s2, l)
				taken = int32(a) >= int32(c)
			case 4:
				b.Jmp(l)
				taken = true
			}
			v := int32(rng.Intn(100))
			b.AddI(dst, dst, v)
			if !taken {
				g.regs[dst] += uint32(v)
			}
			b.Label(l)
		}
	}
	b.Halt()
	return b.MustBuild(), g
}
