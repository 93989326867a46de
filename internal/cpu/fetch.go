package cpu

import (
	"asymfence/internal/isa"
	"asymfence/internal/mem"
)

// fetch brings up to fetchWidth instructions into the ROB. Branches are
// evaluated functionally at fetch (perfect prediction); when a branch
// operand depends on an unperformed load, fetch stalls until it resolves.
func (c *Core) fetch(now int64) {
	if c.fetchEnd || c.draining {
		return
	}
	for n := 0; n < fetchWidth; n++ {
		if c.robSlots >= c.cfg.ROBSize {
			return
		}
		if c.pc < 0 || c.pc >= len(c.prog.Instrs) {
			c.fetchEnd = true
			return
		}
		in := c.prog.Instrs[c.pc]
		if in.IsBranch() {
			if !c.fetchBranch(now, in) {
				return // operand unresolved; retry next cycle
			}
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
// the predicted path. Mispredictions are detected when the operands
// resolve and squash the younger instructions (verifyBranches).
func (c *Core) fetchBranch(now int64, in isa.Instr) bool {
	s1 := c.readReg(in.Src1)
	s2 := c.readReg(in.Src2)
	c.seq++
	e := c.newEntry()
	e.in, e.pc, e.seq, e.s1, e.s2 = in, c.pc, c.seq, s1, s2
	if in.Op == isa.Jmp || (s1.known && s2.known) {
		taken := evalBranch(in, s1.val, s2.val)
		e.resolved = true
		e.ready = maxi64(now, maxi64(s1.ready, s2.ready)) + 1
		c.pushROB(e)
		c.advancePC(in, taken)
		return true
	}
	// Predict: backward branches (loops) taken, forward branches
	// (conflict/validation checks) not taken.
	e.predicted = true
	e.predTaken = in.Target <= e.pc
	c.pushROB(e)
	c.advancePC(in, e.predTaken)
	return true
}

func (c *Core) advancePC(in isa.Instr, taken bool) {
	if taken {
		c.pc = in.Target
	} else {
		c.pc++
	}
}

func evalBranch(in isa.Instr, a, b uint32) bool {
	switch in.Op {
	case isa.Jmp:
		return true
	case isa.Beq:
		return a == b
	case isa.Bne:
		return a != b
	case isa.Blt:
		return int32(a) < int32(b)
	case isa.Bge:
		return int32(a) >= int32(b)
	}
	return false
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
		slots := workSlots(cycles, c.cfg.ROBSize)
		if c.robSlots+slots > c.cfg.ROBSize {
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
	// allocated (the arena cannot un-allocate).
	if in.Op == isa.Work {
		if slots := workSlots(int64(in.Imm), c.cfg.ROBSize); c.robSlots+slots > c.cfg.ROBSize {
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
		e.slots = workSlots(int64(in.Imm), c.cfg.ROBSize)
		start := maxi64(now, c.workFree)
		e.prevWork = c.workFree
		e.ready = start + int64(in.Imm)
		e.val = uint32(in.Imm)
		c.workFree = e.ready
		e.resolved = true

	case isa.Li:
		e.resolved = true
		e.val = uint32(in.Imm)
		e.ready = now + 1
		c.writeReg(e, in.Dst, regVal{known: true, val: e.val, ready: e.ready})

	case isa.Mov, isa.Add, isa.Sub, isa.Mul, isa.And, isa.Or, isa.Xor,
		isa.AddI, isa.AndI, isa.ShlI, isa.ShrI:
		e.s1 = c.readReg(in.Src1)
		if needsSrc2(in.Op) {
			e.s2 = c.readReg(in.Src2)
		} else {
			e.s2 = operand{known: true}
		}
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

// pushROB appends an entry, charging its slot count to the window, and
// enters a load into lq or a store into sq. Fetching is an action for
// idle memoization: the front end must run again next cycle.
func (c *Core) pushROB(e *robEntry) {
	if e.slots == 0 {
		e.slots = 1
	}
	c.acted = true
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

func needsSrc2(op isa.Op) bool {
	switch op {
	case isa.Add, isa.Sub, isa.Mul, isa.And, isa.Or, isa.Xor:
		return true
	}
	return false
}

// resolveALU computes an ALU entry's value and ready time once both
// operands are known. One-cycle latency.
func (c *Core) resolveALU(now int64, e *robEntry) {
	e.s1.materialize()
	e.s2.materialize()
	if !e.s1.known || !e.s2.known {
		return
	}
	a, b := e.s1.val, e.s2.val
	imm := uint32(e.in.Imm)
	var v uint32
	switch e.in.Op {
	case isa.Mov:
		v = a
	case isa.Add:
		v = a + b
	case isa.Sub:
		v = a - b
	case isa.Mul:
		v = a * b
	case isa.And:
		v = a & b
	case isa.Or:
		v = a | b
	case isa.Xor:
		v = a ^ b
	case isa.AddI:
		v = a + imm
	case isa.AndI:
		v = a & imm
	case isa.ShlI:
		v = a << (imm & 31)
	case isa.ShrI:
		v = a >> (imm & 31)
	}
	e.val = v
	e.ready = maxi64(now, maxi64(e.s1.ready, e.s2.ready)) + 1
	e.resolved = true
}

// resolveAddr computes a memory entry's effective address once the base
// register is known.
func (c *Core) resolveAddr(e *robEntry) {
	e.s1.materialize()
	if !e.s1.known {
		return
	}
	e.addr = mem.Addr(e.s1.val + uint32(e.in.Imm))
	e.addrOK = true
	e.addrReady = e.s1.ready
}

// resolveStoreData captures a store's data operand once known.
func (c *Core) resolveStoreData(e *robEntry) {
	e.s2.materialize()
	if !e.s2.known {
		return
	}
	e.dataOK = true
	e.dataVal = e.s2.val
	e.dataReady = e.s2.ready
}

// propagate re-resolves every younger entry after a load/xchg performs.
// A single forward pass suffices because entries are in program order.
func (c *Core) propagate(now int64, from *robEntry) {
	i := c.robIndex(from)
	if i < 0 {
		return
	}
	for _, e := range c.rob[i+1:] {
		if e.squashed {
			continue
		}
		switch e.in.Op {
		case isa.Beq, isa.Bne, isa.Blt, isa.Bge:
			if !e.resolved {
				e.s1.materialize()
				e.s2.materialize()
				if e.s1.known && e.s2.known {
					e.resolved = true
					e.ready = maxi64(now, maxi64(e.s1.ready, e.s2.ready)) + 1
					taken := evalBranch(e.in, e.s1.val, e.s2.val)
					if e.predicted && taken != e.predTaken {
						e.mispredict = true
						e.actualTaken = taken
						if c.mispredicted == nil || e.seq < c.mispredicted.seq {
							c.mispredicted = e
						}
					}
				}
			}
		case isa.Mov, isa.Add, isa.Sub, isa.Mul, isa.And, isa.Or, isa.Xor,
			isa.AddI, isa.AndI, isa.ShlI, isa.ShrI:
			if !e.resolved {
				c.resolveALU(now, e)
				if e.resolved {
					// Update the fetch-side register if this entry is
					// still its latest writer.
					if rv := &c.regs[e.in.Dst]; rv.prod == e {
						rv.known = true
						rv.val = e.val
						rv.ready = e.ready
						rv.prod = nil
					}
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
}
