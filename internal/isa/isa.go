// Package isa defines the small register-machine instruction set executed
// by simulated threads, plus a label-resolving program builder.
//
// The ISA is deliberately minimal: enough to express the paper's
// fence-critical algorithms (the Cilk THE protocol, TLRW read/write
// barriers, Lamport's Bakery, Dekker litmus tests) as real programs with
// data-dependent control flow, while keeping the core model tractable.
// Memory accesses are word sized. Two fence flavors exist: SFence is the
// conventional (strong) fence, WFence the weak fence whose implementation
// the machine's fence design selects (WS+, SW+, W+, Wee, or — under S+ —
// a strong fence).
package isa

import (
	"fmt"
	"strings"
)

// Reg names one of the 32 general-purpose registers. R0 is hardwired to
// zero: reads return 0 and writes are discarded.
type Reg uint8

// NumRegs is the architectural register count.
const NumRegs = 32

// R0 is the hardwired zero register.
const R0 Reg = 0

// Op is an instruction opcode.
type Op uint8

// Opcodes. ALU results are computed modulo 2^32; branch comparisons are
// signed over int32.
const (
	Nop    Op = iota
	Li        // Dst = Imm
	Mov       // Dst = Src1
	Add       // Dst = Src1 + Src2
	Sub       // Dst = Src1 - Src2
	Mul       // Dst = Src1 * Src2
	And       // Dst = Src1 & Src2
	Or        // Dst = Src1 | Src2
	Xor       // Dst = Src1 ^ Src2
	AddI      // Dst = Src1 + Imm
	AndI      // Dst = Src1 & Imm
	ShlI      // Dst = Src1 << Imm
	ShrI      // Dst = Src1 >> Imm (logical)
	Ld        // Dst = MEM[Src1 + Imm]
	St        // MEM[Src1 + Imm] = Src2
	Xchg      // atomically: Dst = MEM[Src1+Imm]; MEM[Src1+Imm] = Src2. Full fence (x86-style locked exchange).
	SFence    // strong (conventional) fence
	WFence    // weak fence (design-dependent implementation)
	Beq       // if Src1 == Src2 goto Target
	Bne       // if Src1 != Src2 goto Target
	Blt       // if int32(Src1) < int32(Src2) goto Target
	Bge       // if int32(Src1) >= int32(Src2) goto Target
	Jmp       // goto Target
	Work      // Imm (or Src1's value, when Src1 != R0) cycles of modeled computation
	Stat      // event counter Imm increments when this instruction retires
	Halt      // thread finished
)

var opNames = [...]string{
	Nop: "nop", Li: "li", Mov: "mov", Add: "add", Sub: "sub", Mul: "mul",
	And: "and", Or: "or", Xor: "xor", AddI: "addi", AndI: "andi",
	ShlI: "shli", ShrI: "shri", Ld: "ld", St: "st", Xchg: "xchg",
	SFence: "sfence", WFence: "wfence", Beq: "beq", Bne: "bne",
	Blt: "blt", Bge: "bge", Jmp: "jmp", Work: "work", Stat: "stat",
	Halt: "halt",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one decoded instruction. A register field the opcode does not
// read is R0, as the Builder leaves it.
type Instr struct {
	Op     Op
	Dst    Reg
	Src1   Reg
	Src2   Reg
	Imm    int32 // immediate / displacement / work cycles / stat id
	Target int   // resolved branch target (instruction index)
}

// IsBranch reports whether the instruction may redirect control flow.
func (in Instr) IsBranch() bool {
	switch in.Op {
	case Beq, Bne, Blt, Bge, Jmp:
		return true
	}
	return false
}

// IsALU reports whether the instruction computes Dst from its register
// operands and immediate alone (Li through ShrI): Eval gives the value.
func (in Instr) IsALU() bool { return in.Op >= Li && in.Op <= ShrI }

// Eval returns the value an ALU instruction (IsALU) writes to Dst, given
// Src1's value a and Src2's value b; it returns 0 for any other op.
// Results wrap modulo 2^32, and a shift amount is the immediate's low 5
// bits. Eval and Taken are the ISA's one definition of local
// instructions: the cycle simulator's cores, the reference TSO machine
// and the real-goroutine litmus runner all compute through them.
func (in Instr) Eval(a, b uint32) uint32 {
	imm := uint32(in.Imm)
	switch in.Op {
	case Li:
		return imm
	case Mov:
		return a
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case And:
		return a & b
	case Or:
		return a | b
	case Xor:
		return a ^ b
	case AddI:
		return a + imm
	case AndI:
		return a & imm
	case ShlI:
		return a << (imm & 31)
	case ShrI:
		return a >> (imm & 31)
	}
	return 0
}

// Taken reports whether a branch (IsBranch) goes to Target, given Src1's
// value a and Src2's value b; it is false for any other op. Blt and Bge
// compare signed.
func (in Instr) Taken(a, b uint32) bool {
	switch in.Op {
	case Beq:
		return a == b
	case Bne:
		return a != b
	case Blt:
		return int32(a) < int32(b)
	case Bge:
		return int32(a) >= int32(b)
	case Jmp:
		return true
	}
	return false
}

// IsMem reports whether the instruction accesses memory.
func (in Instr) IsMem() bool {
	switch in.Op {
	case Ld, St, Xchg:
		return true
	}
	return false
}

// IsFence reports whether the instruction is a fence of either flavor.
func (in Instr) IsFence() bool { return in.Op == SFence || in.Op == WFence }

// String disassembles the instruction.
func (in Instr) String() string {
	switch in.Op {
	case Nop, SFence, WFence, Halt:
		return in.Op.String()
	case Li:
		return fmt.Sprintf("li r%d, %d", in.Dst, in.Imm)
	case Mov:
		return fmt.Sprintf("mov r%d, r%d", in.Dst, in.Src1)
	case Add, Sub, Mul, And, Or, Xor:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Dst, in.Src1, in.Src2)
	case AddI, AndI, ShlI, ShrI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Dst, in.Src1, in.Imm)
	case Ld:
		return fmt.Sprintf("ld r%d, %d(r%d)", in.Dst, in.Imm, in.Src1)
	case St:
		return fmt.Sprintf("st r%d, %d(r%d)", in.Src2, in.Imm, in.Src1)
	case Xchg:
		return fmt.Sprintf("xchg r%d, r%d, %d(r%d)", in.Dst, in.Src2, in.Imm, in.Src1)
	case Beq, Bne, Blt, Bge:
		return fmt.Sprintf("%s r%d, r%d, @%d", in.Op, in.Src1, in.Src2, in.Target)
	case Jmp:
		return fmt.Sprintf("jmp @%d", in.Target)
	case Work:
		if in.Src1 != R0 {
			return fmt.Sprintf("work r%d", in.Src1)
		}
		return fmt.Sprintf("work %d", in.Imm)
	case Stat:
		return fmt.Sprintf("stat %d", in.Imm)
	}
	return in.Op.String()
}

// Program is a fully assembled instruction sequence for one thread.
type Program struct {
	Name   string
	Instrs []Instr
}

// String disassembles the whole program.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; %s (%d instrs)\n", p.Name, len(p.Instrs))
	for i, in := range p.Instrs {
		fmt.Fprintf(&b, "%4d: %s\n", i, in.String())
	}
	return b.String()
}
