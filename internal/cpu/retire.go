package cpu

import (
	"slices"

	"asymfence/internal/cache"
	"asymfence/internal/coherence"
	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/noc"
	"asymfence/internal/trace"
)

// DebugBrokenFence, when true, deliberately breaks SFence: it retires
// without waiting for the write buffer to drain (a WFence under S+ and a
// demoted WeeFence still wait). Test-only — it exists to prove the TSO
// checker catches a fence implementation that skips its drain condition
// (see internal/sim's broken-design regression test).
var DebugBrokenFence bool

// blockReason classifies why retirement is blocked this cycle, for the
// paper's busy / fence-stall / other-stall breakdown.
type blockReason uint8

const (
	rNone  blockReason = iota
	rFence             // fence semantics block retirement
	rMem               // waiting on the memory system
	rExec              // pipeline hazard (dataflow latency, WB full, ...)
	rWork              // modeled computation executing (counts as busy)
	rEmpty             // ROB empty (fetch stalled or program drained)
)

// retire retires up to retireWidth instructions in order and returns the
// count, the reason the first non-retired instruction was blocked, and
// that instruction's program counter (for the fence-site profile).
func (c *Core) retire(now int64) (int, blockReason, int) {
	retired := 0
	for retired < retireWidth {
		if len(c.rob) == 0 {
			if retired > 0 {
				return retired, rNone, -1
			}
			return 0, rEmpty, -1
		}
		e := c.rob[0]
		ok, reason := c.tryRetire(now, e)
		if !ok {
			return retired, reason, e.pc
		}
		c.rob = c.rob[1:]
		if e.isStore() {
			c.sq = c.sq[1:]
		}
		c.robSlots -= e.slots
		c.pool = append(c.pool, e)
		c.st.RetiredInstrs++
		retired++
		if c.finished {
			break
		}
	}
	return retired, rNone, -1
}

func (c *Core) tryRetire(now int64, e *robEntry) (bool, blockReason) {
	switch e.in.Op {
	case isa.Work:
		if now < e.ready {
			return false, rWork
		}
		// A Work of N models N instructions of application compute at
		// IPC 1; count them so per-1000-instruction fence rates (Table 4)
		// are comparable to the paper's.
		if e.val > 1 {
			c.st.RetiredInstrs += uint64(e.val) - 1
		}
		return true, rNone

	case isa.Stat:
		c.st.Event(e.in.Imm)
		if len(c.fences) > 0 {
			// A W+ rollback would replay this instruction; log it so the
			// recovery can un-count it.
			c.statLog = append(c.statLog, statRec{seq: e.seq, id: e.in.Imm})
		}
		return true, rNone

	case isa.Nop, isa.Li, isa.Mov, isa.Add, isa.Sub, isa.Mul, isa.And,
		isa.Or, isa.Xor, isa.AddI, isa.AndI, isa.ShlI, isa.ShrI,
		isa.Beq, isa.Bne, isa.Blt, isa.Bge, isa.Jmp:
		if !e.resolved || now < e.ready {
			return false, rExec
		}
		return true, rNone

	case isa.Ld:
		if !e.performed || now < e.ready {
			return false, rMem
		}
		ok, reason := c.retireLoad(now, e)
		if ok && c.chk != nil {
			c.chk.OnLoadRetire(now, c.cfg.ID, e.addr, e.val, e.seq, e.forwarded)
		}
		return ok, reason

	case isa.St:
		if !e.addrOK || !e.dataOK || now < maxi64(e.addrReady, e.dataReady) {
			return false, rExec
		}
		if len(c.wb) >= wbEntries {
			return false, rExec
		}
		c.wb = pushWindow(c.wb, c.wbBuf, wbEntry{addr: e.addr, val: e.dataVal, seq: e.seq})
		c.cfg.WBOcc.Observe(int64(len(c.wb)))
		if c.chk != nil {
			c.chk.OnStoreRetire(now, c.cfg.ID, e.addr, e.dataVal, e.seq)
		}
		return true, rNone

	case isa.Xchg:
		return c.retireAtomic(now, e)

	case isa.SFence:
		return c.retireStrongFence(now, e)

	case isa.WFence:
		return c.retireWeakFence(now, e)

	case isa.Halt:
		if len(c.wb) != 0 || len(c.fences) != 0 {
			return false, rExec
		}
		c.finished = true
		c.st.HaltCycle = now
		return true, rNone
	}
	return true, rNone
}

// retireLoad applies the weak-fence retirement rules: a load retiring
// under one or more incomplete weak fences completes early and must enter
// the Bypass Set; under Wee it is additionally held by Remote-PS matches
// and the single-module confinement rule.
func (c *Core) retireLoad(now int64, e *robEntry) (bool, blockReason) {
	if len(c.fences) == 0 {
		return true, rNone
	}
	line := e.line()
	for i := range c.fences {
		f := &c.fences[i]
		if !f.wee {
			continue
		}
		if f.demoted {
			// The fence turned into a conventional fence: no further
			// early completions under it.
			return false, rFence
		}
		// Remote PS check (paper Fig. 2c step 3): a post-fence access
		// matching a concurrent fence's pending set stalls until the
		// local fence completes.
		for _, pl := range f.remotePS {
			if pl == line {
				return false, rFence
			}
		}
		// PS+BS single-module confinement (paper §6): the fence's Bypass
		// Set must live in the same directory module as its pending set.
		// The first out-of-module post-fence access demotes the fence.
		if f.module < 0 {
			f.module = c.home(line)
		} else if c.home(line) != f.module {
			f.demoted = true
			c.st.DemotedWFences++
			c.st.SFences++
			c.st.WFences--
			c.tr.Emit(now, trace.KFenceDemote, int32(c.cfg.ID), 0, int64(e.pc), int64(f.module), 0)
			return false, rFence
		}
	}
	youngest := c.fences[len(c.fences)-1].seq
	if !c.bs.Insert(line, mem.WordMaskOf(e.addr), youngest) {
		return false, rFence // Bypass Set full
	}
	return true, rNone
}

// retireAtomic executes an Xchg at the ROB head: x86-style locked
// exchange, i.e. a full fence around an atomic read-modify-write.
func (c *Core) retireAtomic(now int64, e *robEntry) (bool, blockReason) {
	if e.performed {
		if now < e.ready {
			return false, rMem
		}
		return true, rNone
	}
	if len(c.wb) != 0 || len(c.fences) != 0 {
		return false, rFence // drain like a strong fence
	}
	if !e.addrOK || !e.dataOK || now < maxi64(e.addrReady, e.dataReady) {
		return false, rExec
	}
	if c.atomInFlight || now < c.atomRetryAt {
		return false, rMem
	}
	line := e.line()
	// Fast path: the line is already exclusively ours.
	if st, ok := c.l1.Peek(line); ok && (st == cache.Modified || st == cache.Exclusive) {
		c.l1.SetState(line, cache.Modified)
		c.performAtomic(now+l1HitLatency, e)
		return false, rMem // retires once the RMW latency elapses
	}
	c.atomReqID = c.nextReqID()
	c.atomInFlight = true
	c.atomEntry = e
	c.send(now, c.home(line), coherence.Msg{
		Type: coherence.GetM, Line: line, Core: c.cfg.ID, ReqID: c.atomReqID,
	}, noc.CatProtocol)
	return false, rMem
}

// performAtomic completes the read-modify-write.
func (c *Core) performAtomic(when int64, e *robEntry) {
	c.acted = true
	old := c.store.Load(e.addr)
	c.store.StoreWord(e.addr, e.dataVal)
	if c.chk != nil {
		c.chk.OnAtomic(when, c.cfg.ID, e.addr, old, e.dataVal, e.seq)
	}
	e.performed = true
	e.val = old
	e.ready = when
	e.resolved = true
	c.wakeDependents(when, e)
}

// retireStrongFence retires a fence that behaves conventionally (an
// SFence, a WFence under S+ or a demoted WeeFence) once the write buffer
// has drained. DebugBrokenFence skips the drain for an SFence alone.
func (c *Core) retireStrongFence(now int64, e *robEntry) (bool, blockReason) {
	if len(c.wb) != 0 && !(DebugBrokenFence && e.in.Op == isa.SFence) {
		return false, rFence
	}
	c.st.SFences++
	if e.weeDemoted {
		c.st.DemotedWFences++
	}
	c.tr.Emit(now, trace.KFenceStrong, int32(c.cfg.ID), 0, int64(e.pc), 0, 0)
	if c.chk != nil {
		c.chk.OnFenceRetire(now, c.cfg.ID, e.seq, true)
	}
	return true, rNone
}

// retireWeakFence implements the design-dependent behavior of a WFence at
// the ROB head.
func (c *Core) retireWeakFence(now int64, e *robEntry) (bool, blockReason) {
	design := c.cfg.Design
	if design == fence.SPlus {
		// S+: every fence is conventional.
		return c.retireStrongFence(now, e)
	}
	if len(c.wb) == 0 {
		// All pre-fence accesses already complete: the fence is trivially
		// done, no early completion will happen under it.
		c.st.WFences++
		c.tr.Emit(now, trace.KFenceWeak, int32(c.cfg.ID), 0, int64(e.pc), int64(e.seq), 0)
		c.tr.Emit(now, trace.KFenceComplete, int32(c.cfg.ID), 0, int64(e.seq), int64(c.bs.Len()), 0)
		if c.weeDepositSent {
			c.resetWeeHandshake(now)
		}
		if c.chk != nil {
			c.chk.OnFenceRetire(now, c.cfg.ID, e.seq, false)
			c.chk.OnFenceComplete(now, c.cfg.ID, e.seq)
		}
		return true, rNone
	}
	if design == fence.Wee {
		return c.retireWeeFence(now, e)
	}
	// WS+ / SW+ / W+: the fence retires immediately; post-fence reads may
	// now retire and complete early, guarded by the Bypass Set.
	c.st.WFences++
	c.tr.Emit(now, trace.KFenceWeak, int32(c.cfg.ID), 0, int64(e.pc), int64(e.seq), 0)
	c.fences = append(c.fences, activeFence{seq: e.seq, pcAfter: e.pc + 1})
	if c.chk != nil {
		c.chk.OnFenceRetire(now, c.cfg.ID, e.seq, false)
	}
	return true, rNone
}

// retireWeeFence runs the WeeFence handshake: compute the Pending Set from
// the write buffer (with Private Access Filtering — stores to
// thread-private data cannot participate in a cycle and are excluded);
// demote to a conventional fence if the PS spans more than one directory
// module (the paper's implementability rule, §2.3); otherwise deposit it
// in the module's GRT and collect the Remote PS before retiring.
func (c *Core) retireWeeFence(now int64, e *robEntry) (bool, blockReason) {
	if !e.weeChecked {
		e.weeChecked = true
		// The write buffer holds at most wbEntries stores, so a scan of
		// the set dedupes it without a map.
		var ps []mem.Line
		for _, w := range c.wb {
			l := mem.LineOf(w.addr)
			if c.cfg.Privacy != nil && !c.cfg.Privacy.Shared(l) {
				continue
			}
			if !slices.Contains(ps, l) {
				ps = append(ps, l)
			}
		}
		// With an empty (fully filtered) PS, the GRT is read via the local
		// module and the BS module is pinned by the first post-fence
		// access instead.
		module := -1
		if len(ps) > 0 {
			module = c.home(ps[0])
		}
		for _, l := range ps {
			if c.home(l) != module {
				e.weeDemoted = true
				break
			}
		}
		if e.weeDemoted {
			c.tr.Emit(now, trace.KFenceDemote, int32(c.cfg.ID), 0, int64(e.pc), -1, 0)
		}
		if !e.weeDemoted {
			c.weeModule = module
			c.weeReqID = c.nextReqID()
			c.weeDepositSent = true
			c.weeDepositAck = false
			c.sendGRT(now, module, coherence.Msg{Type: coherence.WeeDeposit, ReqID: c.weeReqID, PS: ps})
		}
	}
	if e.weeDemoted {
		// Conventional-fence behavior (paper §2.3: a WeeFence whose state
		// cannot be confined to one directory module turns into a fence).
		return c.retireStrongFence(now, e)
	}
	if !c.weeDepositAck {
		return false, rFence // waiting for the GRT round trip
	}
	c.st.WFences++
	c.tr.Emit(now, trace.KFenceWeak, int32(c.cfg.ID), 0, int64(e.pc), int64(e.seq), 0)
	c.fences = append(c.fences, activeFence{
		seq: e.seq, pcAfter: e.pc + 1,
		module: c.weeModule, remotePS: c.weeRemote, wee: true,
		weeID: c.weeReqID,
	})
	c.weeDepositSent = false
	c.weeDepositAck = false
	c.weeRemote = nil
	if c.chk != nil {
		c.chk.OnFenceRetire(now, c.cfg.ID, e.seq, false)
	}
	return true, rNone
}

// resetWeeHandshake clears a deposit that became unnecessary (the write
// buffer drained while waiting), removing the GRT entry.
func (c *Core) resetWeeHandshake(now int64) {
	c.sendGRT(now, c.weeModule, coherence.Msg{Type: coherence.WeeRemove, ReqID: c.weeReqID})
	c.weeDepositSent = false
	c.weeDepositAck = false
	c.weeRemote = nil
}

// sendGRT sends m from this core to the GRT through the directory module
// holding a WeeFence's pending set, or through this core's own module
// when the set is empty (module < 0).
func (c *Core) sendGRT(now int64, module int, m coherence.Msg) {
	if module < 0 {
		module = c.cfg.ID
	}
	m.Core = c.cfg.ID
	c.send(now, module, m, noc.CatFence)
}
