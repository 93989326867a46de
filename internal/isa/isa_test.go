package isa

import (
	"strings"
	"testing"
)

func TestBuilderLabelsResolve(t *testing.T) {
	b := NewBuilder("t")
	b.Li(1, 5)
	b.Label("loop")
	b.AddI(1, 1, -1)
	b.Bne(1, R0, "loop")
	b.Jmp("end")
	b.Nop()
	b.Label("end")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[2].Target != 1 {
		t.Errorf("backward branch target %d, want 1", p.Instrs[2].Target)
	}
	if p.Instrs[3].Target != 5 {
		t.Errorf("forward jump target %d, want 5", p.Instrs[3].Target)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Jmp("nowhere")
	if _, err := b.Build(); err == nil {
		t.Fatal("undefined label not reported")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Label("x")
	b.Label("x")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate label not reported")
	}
}

func TestNewLabelUnique(t *testing.T) {
	b := NewBuilder("t")
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		l := b.NewLabel("x")
		if seen[l] {
			t.Fatalf("duplicate generated label %q", l)
		}
		seen[l] = true
	}
}

func TestInstrClassification(t *testing.T) {
	if !(Instr{Op: Beq}).IsBranch() || !(Instr{Op: Jmp}).IsBranch() {
		t.Error("branch not classified")
	}
	if (Instr{Op: Add}).IsBranch() {
		t.Error("add classified as branch")
	}
	for _, op := range []Op{Ld, St, Xchg} {
		if !(Instr{Op: op}).IsMem() {
			t.Errorf("%v not classified as memory", op)
		}
	}
	if !(Instr{Op: SFence}).IsFence() || !(Instr{Op: WFence}).IsFence() {
		t.Error("fence not classified")
	}
	if (Instr{Op: Ld}).IsFence() {
		t.Error("load classified as fence")
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: Li, Dst: 3, Imm: -7}, "li r3, -7"},
		{Instr{Op: Ld, Dst: 2, Src1: 4, Imm: 8}, "ld r2, 8(r4)"},
		{Instr{Op: St, Src1: 4, Src2: 2, Imm: 0}, "st r2, 0(r4)"},
		{Instr{Op: Beq, Src1: 1, Src2: 2, Target: 9}, "beq r1, r2, @9"},
		{Instr{Op: SFence}, "sfence"},
		{Instr{Op: Work, Imm: 32}, "work 32"},
		{Instr{Op: Work, Src1: 7}, "work r7"},
		{Instr{Op: Xchg, Dst: 1, Src2: 2, Src1: 3, Imm: 4}, "xchg r1, r2, 4(r3)"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("disasm %v = %q, want %q", c.in.Op, got, c.want)
		}
	}
}

func TestProgramString(t *testing.T) {
	p := NewBuilder("demo").Li(1, 1).Halt().MustBuild()
	s := p.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "li r1, 1") || !strings.Contains(s, "halt") {
		t.Fatalf("program listing incomplete:\n%s", s)
	}
}

func TestFenceHelper(t *testing.T) {
	p := NewBuilder("f").Fence(true).Fence(false).Halt().MustBuild()
	if p.Instrs[0].Op != WFence || p.Instrs[1].Op != SFence {
		t.Fatal("Fence helper emitted wrong flavors")
	}
}

func TestWorkLoopHelpers(t *testing.T) {
	// Small amounts collapse to a single Work.
	p := NewBuilder("w").WorkLoop(40, 2).Halt().MustBuild()
	if p.Instrs[0].Op != Work || p.Instrs[0].Imm != 40 {
		t.Fatalf("small WorkLoop: %v", p.Instrs[0])
	}
	// Large amounts loop in 32-cycle chunks.
	p = NewBuilder("w").WorkLoop(320, 2).Halt().MustBuild()
	var chunks int
	for _, in := range p.Instrs {
		if in.Op == Work {
			chunks++
			if in.Imm != 32 {
				t.Fatalf("chunk size %d", in.Imm)
			}
		}
	}
	if chunks != 1 {
		t.Fatalf("expected one loop-body Work, found %d", chunks)
	}
}

// TestEval checks every ALU op's value against hand-written results:
// wrapping arithmetic, negative immediates, shift amounts masked to
// their low 5 bits, and a logical right shift.
func TestEval(t *testing.T) {
	cases := []struct {
		in   Instr
		a, b uint32
		want uint32
	}{
		{Instr{Op: Li, Imm: -7}, 1, 2, 0xfffffff9},
		{Instr{Op: Li, Imm: 42}, 0, 0, 42},
		{Instr{Op: Mov}, 0xdeadbeef, 5, 0xdeadbeef},
		{Instr{Op: Add}, 3, 4, 7},
		{Instr{Op: Add}, 0xffffffff, 2, 1},
		{Instr{Op: Sub}, 10, 3, 7},
		{Instr{Op: Sub}, 0, 1, 0xffffffff},
		{Instr{Op: Mul}, 6, 7, 42},
		{Instr{Op: Mul}, 0x10000, 0x10000, 0},
		{Instr{Op: Mul}, 0xffffffff, 3, 0xfffffffd},
		{Instr{Op: And}, 0b1100, 0b1010, 0b1000},
		{Instr{Op: Or}, 0b1100, 0b1010, 0b1110},
		{Instr{Op: Xor}, 0b1100, 0b1010, 0b0110},
		{Instr{Op: AddI, Imm: 5}, 10, 99, 15},
		{Instr{Op: AddI, Imm: -1}, 0, 99, 0xffffffff},
		{Instr{Op: AddI, Imm: -3}, 10, 0, 7},
		{Instr{Op: AndI, Imm: 0xff}, 0x1234, 0, 0x34},
		{Instr{Op: AndI, Imm: -4}, 0x1237, 0, 0x1234},
		{Instr{Op: ShlI, Imm: 0}, 0x81, 0, 0x81},
		{Instr{Op: ShlI, Imm: 4}, 0x81, 0, 0x810},
		{Instr{Op: ShlI, Imm: 31}, 3, 0, 0x80000000},
		{Instr{Op: ShlI, Imm: 32}, 3, 0, 3},
		{Instr{Op: ShlI, Imm: 33}, 3, 0, 6},
		{Instr{Op: ShlI, Imm: 63}, 3, 0, 0x80000000},
		{Instr{Op: ShrI, Imm: 0}, 0x80000000, 0, 0x80000000},
		{Instr{Op: ShrI, Imm: 1}, 0x80000000, 0, 0x40000000},
		{Instr{Op: ShrI, Imm: 31}, 0x80000000, 0, 1},
		{Instr{Op: ShrI, Imm: 32}, 0xf0, 0, 0xf0},
		{Instr{Op: ShrI, Imm: 36}, 0xf0, 0, 0x0f},
		{Instr{Op: ShrI, Imm: 63}, 0x80000000, 0, 1},
		{Instr{Op: Ld}, 1, 2, 0},
		{Instr{Op: Beq}, 1, 1, 0},
	}
	for _, c := range cases {
		if got := c.in.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v with a=%#x b=%#x: Eval = %#x, want %#x", c.in, c.a, c.b, got, c.want)
		}
	}
	for op := Nop; op <= Halt; op++ {
		if want := op >= Li && op <= ShrI; (Instr{Op: op}).IsALU() != want {
			t.Errorf("%v: IsALU = %v, want %v", op, !want, want)
		}
	}
}

// TestTaken checks every branch kind's outcome against hand-written
// results, with Blt and Bge comparing signed across 0x7fffffff and
// 0x80000000.
func TestTaken(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint32
		want bool
	}{
		{Beq, 5, 5, true},
		{Beq, 5, 6, false},
		{Bne, 5, 6, true},
		{Bne, 5, 5, false},
		{Blt, 1, 2, true},
		{Blt, 2, 2, false},
		{Blt, 3, 2, false},
		{Blt, 0x80000000, 0x7fffffff, true},
		{Blt, 0x7fffffff, 0x80000000, false},
		{Blt, 0xffffffff, 0, true},
		{Bge, 2, 2, true},
		{Bge, 1, 2, false},
		{Bge, 0x7fffffff, 0x80000000, true},
		{Bge, 0x80000000, 0x7fffffff, false},
		{Bge, 0, 0xffffffff, true},
		{Jmp, 0, 1, true},
		{Add, 1, 1, false},
		{Halt, 0, 0, false},
	}
	for _, c := range cases {
		if got := (Instr{Op: c.op}).Taken(c.a, c.b); got != c.want {
			t.Errorf("%v with a=%#x b=%#x: Taken = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}
