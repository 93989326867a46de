package cpu

import (
	"asymfence/internal/isa"
	"asymfence/internal/mem"
)

// fetch brings up to fetchWidth instructions into the ROB, following
// each branch down its evaluated or predicted path (fetchBranch).
func (c *Core) fetch(now int64) {
	if c.fetchEnd || c.draining {
		return
	}
	for n := 0; n < fetchWidth; n++ {
		if c.robSlots >= robEntries {
			return
		}
		if c.pc < 0 || c.pc >= len(c.prog.Instrs) {
			c.fetchEnd = true
			return
		}
		in := c.prog.Instrs[c.pc]
		if in.IsBranch() {
			c.fetchBranch(now, in)
			continue
		}
		if !c.fetchOne(now, in) {
			return // fetch-time value not yet available
		}
		if in.Op == isa.Halt {
			c.fetchEnd = true
			return
		}
	}
}

// fetchBranch handles a branch at fetch. Branches whose operands are
// known are evaluated exactly; otherwise the outcome is predicted with
// the backward-taken/forward-not-taken heuristic and fetch continues down
// the predicted path. A misprediction is found when the operands
// resolve (operandReady), and redirectMispredict squashes the younger
// instructions and redirects fetch.
func (c *Core) fetchBranch(now int64, in isa.Instr) {
	s1 := c.readReg(in.Src1)
	s2 := c.readReg(in.Src2)
	c.seq++
	e := c.newEntry()
	e.in, e.pc, e.seq, e.s1, e.s2 = in, c.pc, c.seq, s1, s2
	if in.Op == isa.Jmp || (s1.known && s2.known) {
		taken := in.Taken(s1.val, s2.val)
		e.resolved = true
		e.ready = maxi64(now, maxi64(s1.ready, s2.ready)) + 1
		c.pushROB(e)
		c.advancePC(in, taken)
		return
	}
	// Predict: backward branches (loops) taken, forward branches
	// (conflict/validation checks) not taken.
	e.predicted = true
	e.predTaken = in.Target <= e.pc
	c.pushROB(e)
	c.advancePC(in, e.predTaken)
}

func (c *Core) advancePC(in isa.Instr, taken bool) {
	if taken {
		c.pc = in.Target
	} else {
		c.pc++
	}
}

// fetchOne decodes, captures operands, performs the fetch-side functional
// update, and appends the entry to the ROB. It returns false when the
// instruction needs a fetch-time value that is not yet available
// (register-valued Work behind an unperformed load).
func (c *Core) fetchOne(now int64, in isa.Instr) bool {
	if in.Op == isa.Work && in.Src1 != isa.R0 {
		s1 := c.readReg(in.Src1)
		if !s1.known {
			return false
		}
		cycles := int64(int32(s1.val))
		if cycles < 0 {
			cycles = 0
		}
		if cycles > 1<<20 {
			cycles = 1 << 20
		}
		slots := workSlots(cycles, robEntries)
		if c.robSlots+slots > robEntries {
			return false
		}
		c.seq++
		e := c.newEntry()
		e.in, e.pc, e.seq, e.s1, e.slots = in, c.pc, c.seq, s1, slots
		c.pc++
		start := maxi64(maxi64(now, c.workFree), s1.ready)
		e.prevWork = c.workFree
		e.ready = start + cycles
		e.val = uint32(cycles)
		c.workFree = e.ready
		e.resolved = true
		c.pushROB(e)
		return true
	}
	// Immediate-form Work must be admission-checked before the entry is
	// taken from the pool.
	if in.Op == isa.Work {
		if slots := workSlots(int64(in.Imm), robEntries); c.robSlots+slots > robEntries {
			return false
		}
	}
	c.seq++
	e := c.newEntry()
	e.in, e.pc, e.seq = in, c.pc, c.seq
	c.pc++

	switch in.Op {
	case isa.Nop, isa.SFence, isa.WFence, isa.Halt:
		e.resolved = true
		e.ready = now

	case isa.Stat:
		e.resolved = true
		e.ready = now

	case isa.Work:
		e.slots = workSlots(int64(in.Imm), robEntries)
		start := maxi64(now, c.workFree)
		e.prevWork = c.workFree
		e.ready = start + int64(in.Imm)
		e.val = uint32(in.Imm)
		c.workFree = e.ready
		e.resolved = true

	case isa.Li:
		e.resolved = true
		e.val = in.Eval(0, 0)
		e.ready = now + 1
		c.writeReg(e, in.Dst, regVal{known: true, val: e.val, ready: e.ready})

	case isa.Mov, isa.Add, isa.Sub, isa.Mul, isa.And, isa.Or, isa.Xor,
		isa.AddI, isa.AndI, isa.ShlI, isa.ShrI:
		e.s1 = c.readReg(in.Src1)
		e.s2 = c.readReg(in.Src2)
		c.resolveALU(now, e)
		if e.resolved {
			c.writeReg(e, in.Dst, regVal{known: true, val: e.val, ready: e.ready})
		} else {
			c.writeReg(e, in.Dst, regVal{prod: e})
		}

	case isa.Ld:
		e.s1 = c.readReg(in.Src1)
		c.resolveAddr(e)
		c.writeReg(e, in.Dst, regVal{prod: e})

	case isa.St:
		e.s1 = c.readReg(in.Src1)
		e.s2 = c.readReg(in.Src2)
		c.resolveAddr(e)
		c.resolveStoreData(e)

	case isa.Xchg:
		e.s1 = c.readReg(in.Src1)
		e.s2 = c.readReg(in.Src2)
		c.resolveAddr(e)
		c.resolveStoreData(e)
		c.writeReg(e, in.Dst, regVal{prod: e})
	}
	c.pushROB(e)
	return true
}

// pushROB appends an entry, charging its slot count to the window,
// enters a load into lq or a store into sq, and links each operand that
// waits on a producer into that producer's wakeup list. Fetching is an
// action for idle memoization: the front end must run again next cycle.
func (c *Core) pushROB(e *robEntry) {
	if e.slots == 0 {
		e.slots = 1
	}
	c.acted = true
	e.s1.link(e)
	e.s2.link(e)
	c.rob = pushWindow(c.rob, c.robBuf, e)
	c.robSlots += e.slots
	switch {
	case e.in.Op == isa.Ld:
		c.lq = append(c.lq, e)
	case e.isStore():
		c.sq = pushWindow(c.sq, c.sqBuf, e)
	}
}

// workSlots is how much of the reorder window a Work of n cycles
// occupies: one entry per modeled instruction, capped so the entry can
// always be fetched into an empty window.
func workSlots(n int64, robSize int) int {
	if n < 1 {
		return 1
	}
	if n > int64(robSize-8) {
		return robSize - 8
	}
	return int(n)
}

// link enters operand o of entry e at the head of its producer's wakeup
// list, if it waits on one.
func (o *operand) link(e *robEntry) {
	if o.prod != nil {
		o.holder = e
		o.next = o.prod.waiters
		o.prod.waiters = o
	}
}

// resolveALU computes an ALU entry's value and ready time once both
// operands are known. One-cycle latency.
func (c *Core) resolveALU(now int64, e *robEntry) {
	if !e.s1.known || !e.s2.known {
		return
	}
	e.val = e.in.Eval(e.s1.val, e.s2.val)
	e.ready = maxi64(now, maxi64(e.s1.ready, e.s2.ready)) + 1
	e.resolved = true
}

// resolveAddr computes a memory entry's effective address once the base
// register is known.
func (c *Core) resolveAddr(e *robEntry) {
	if !e.s1.known {
		return
	}
	e.addr = mem.Addr(e.s1.val + uint32(e.in.Imm))
	e.addrOK = true
	e.addrReady = e.s1.ready
}

// resolveStoreData captures a store's data operand once known.
func (c *Core) resolveStoreData(e *robEntry) {
	if !e.s2.known {
		return
	}
	e.dataOK = true
	e.dataVal = e.s2.val
	e.dataReady = e.s2.ready
}

// operandReady re-resolves entry e after one of its operands received
// its value from a producer that resolved at cycle now. The oldest
// mispredicted branch is chosen by seq, so the order in which a
// producer's dependents are woken cannot matter.
func (c *Core) operandReady(now int64, e *robEntry) {
	switch e.in.Op {
	case isa.Beq, isa.Bne, isa.Blt, isa.Bge:
		if !e.resolved && e.s1.known && e.s2.known {
			e.resolved = true
			e.ready = maxi64(now, maxi64(e.s1.ready, e.s2.ready)) + 1
			taken := e.in.Taken(e.s1.val, e.s2.val)
			if e.predicted && taken != e.predTaken {
				e.actualTaken = taken
				if c.mispredicted == nil || e.seq < c.mispredicted.seq {
					c.mispredicted = e
				}
			}
		}
	case isa.Mov, isa.Add, isa.Sub, isa.Mul, isa.And, isa.Or, isa.Xor,
		isa.AddI, isa.AndI, isa.ShlI, isa.ShrI:
		if !e.resolved {
			c.resolveALU(now, e)
			if e.resolved {
				c.wakeDependents(now, e)
			}
		}
	case isa.Ld:
		if !e.addrOK {
			c.resolveAddr(e)
		}
	case isa.St, isa.Xchg:
		if !e.addrOK {
			c.resolveAddr(e)
		}
		if !e.dataOK {
			c.resolveStoreData(e)
		}
	}
}
