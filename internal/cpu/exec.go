package cpu

import (
	"math"

	"asymfence/internal/cache"
	"asymfence/internal/coherence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/noc"
	"asymfence/internal/trace"
)

// issueLoads starts memory access for every load whose address is ready.
// Loads may issue speculatively, arbitrarily deep in the ROB. TSO
// store-to-load forwarding is honored: a load first searches older stores
// (unretired ones in sq, then the write buffer) for a matching address.
//
// The walk over lq is in program order, so a younger load whose address
// an older load's result resolves earlier in the same walk (through
// wakeDependents) is still considered this cycle. Issued loads leave lq
// as the walk passes them.
func (c *Core) issueLoads(now int64) {
	// Recompute the earliest future address-ready among unissued loads
	// (an idle-memoization wake term: nothing else re-examines a load
	// whose address resolved with a future ready time).
	c.issueWake = math.MaxInt64
	kept := c.lq[:0]
	for _, e := range c.lq {
		if !c.issueLoad(now, e) {
			kept = append(kept, e)
		}
	}
	c.lq = kept
}

// issueLoad starts memory access for one unissued load and reports
// whether it issued.
func (c *Core) issueLoad(now int64, e *robEntry) bool {
	if !e.addrOK {
		return false
	}
	if now < e.addrReady {
		if e.addrReady < c.issueWake {
			c.issueWake = e.addrReady
		}
		return false
	}
	val, fwd, blocker := c.searchOlderStores(e)
	if blocker != nil {
		return false // an older store's address or data is unresolved
	}
	if fwd {
		e.issued = true
		e.forwarded = true
		c.acted = true
		c.performLoadValue(now+1, e, val)
		return true
	}
	line := e.line()
	if _, hit := c.l1.Lookup(line); hit {
		e.issued = true
		c.acted = true
		c.performLoad(now+l1HitLatency, e)
		return true
	}
	// Miss: merge into an outstanding request for the line or send a
	// new GetS from a free MSHR, if one is left.
	var free *loadMiss
	for i := range c.loadMisses {
		lm := &c.loadMisses[i]
		if !lm.busy {
			if free == nil {
				free = lm
			}
		} else if lm.line == line {
			e.issued = true
			c.acted = true
			lm.waiters = append(lm.waiters, e)
			return true
		}
	}
	if free == nil {
		return false
	}
	e.issued = true
	free.busy, free.line, free.reqID = true, line, c.nextReqID()
	free.waiters = append(free.waiters, e)
	c.send(now, c.home(line), coherence.Msg{
		Type: coherence.GetS, Line: line, Core: c.cfg.ID, ReqID: free.reqID,
	}, noc.CatProtocol)
	return true
}

// searchOlderStores looks for the youngest store older than load ld that
// writes its word: first among the stores ahead of it in sq, then in the
// write buffer. A non-nil blocker is the first older store that keeps
// the load from issuing: its address is unknown, so disambiguation is
// impossible, or it matches but is an Xchg or its data is not ready yet.
// Otherwise fwd reports a forwarding match with its value, and !fwd means
// the load may access memory.
func (c *Core) searchOlderStores(ld *robEntry) (val uint32, fwd bool, blocker *robEntry) {
	// Unretired older stores, youngest first.
	for i := seqIndex(c.sq, ld.seq) - 1; i >= 0; i-- {
		e := c.sq[i]
		if !e.addrOK {
			return 0, false, e
		}
		if e.addr == ld.addr {
			if e.in.Op == isa.Xchg {
				// Atomics execute at the ROB head; the load simply waits.
				return 0, false, e
			}
			if !e.dataOK {
				return 0, false, e
			}
			return e.dataVal, true, nil
		}
	}
	// Write buffer, youngest first.
	for i := len(c.wb) - 1; i >= 0; i-- {
		if c.wb[i].addr == ld.addr {
			return c.wb[i].val, true, nil
		}
	}
	return 0, false, nil
}

// performLoad completes a load from the memory system at cycle when.
func (c *Core) performLoad(when int64, e *robEntry) {
	c.performLoadValue(when, e, c.store.Load(e.addr))
}

// performLoadValue completes a load with an explicit value (forwarding).
func (c *Core) performLoadValue(when int64, e *robEntry, v uint32) {
	c.acted = true
	if c.chk != nil {
		c.chk.OnLoadPerform(when, c.cfg.ID, e.addr, v, e.forwarded, e.seq)
	}
	e.performed = true
	e.val = v
	e.ready = when
	e.resolved = true
	c.wakeDependents(when, e)
}

// handleLoadGrant completes an outstanding load miss and frees its MSHR.
func (c *Core) handleLoadGrant(now int64, m coherence.Msg) {
	var lm *loadMiss
	for i := range c.loadMisses {
		if c.loadMisses[i].busy && c.loadMisses[i].line == m.Line {
			lm = &c.loadMisses[i]
			break
		}
	}
	if lm == nil || lm.reqID != m.ReqID {
		return // stale response for a squashed transaction
	}
	lm.busy = false
	st := cache.Shared
	if m.Type == coherence.GrantE {
		st = cache.Exclusive
	}
	c.installL1(now, m.Line, st)
	for _, e := range lm.waiters {
		c.performLoad(now, e)
	}
	lm.waiters = lm.waiters[:0]
}

// installL1 places a line in the L1, handling the eviction of the victim.
// A dirty victim is written back; if the victim's address is in the Bypass
// Set, the writeback asks the directory to keep this core as a sharer so
// the BS keeps observing writes to it (paper §5.1). Clean victims are
// evicted silently (the directory still lists us as a sharer, which is
// exactly what BS monitoring needs).
func (c *Core) installL1(now int64, l mem.Line, st cache.State) {
	ev, evicted := c.l1.Install(l, st)
	if evicted && ev.Dirty {
		c.send(now, c.home(ev.Line), coherence.Msg{
			Type: coherence.PutM, Line: ev.Line, Core: c.cfg.ID,
			KeepSharer: c.bs.Contains(ev.Line),
		}, noc.CatProtocol)
	}
	if c.chk != nil {
		c.chk.MarkLine(l)
		if evicted {
			c.chk.MarkLine(ev.Line)
		}
	}
}

// squashFrom rolls the pipeline back to re-fetch from entry index idx: a
// speculative load there was invalidated (or a younger dependence chain
// must replay). Fetch-side register state is restored from the undo log.
// Every reference to a squashed entry goes with it (its operands leave
// the wakeup lists of older producers, its load leaves a miss's waiters),
// and the entries return to the pool.
func (c *Core) squashFrom(idx int) {
	cut := c.rob[idx].seq
	c.pc = c.rob[idx].pc
	c.undoTo(cut)
	for _, e := range c.rob[idx:] {
		c.robSlots -= e.slots
		if e.in.Op == isa.Work {
			c.workFree = e.prevWork
		}
		unlinkSquashed(e.s1.prod, cut)
		unlinkSquashed(e.s2.prod, cut)
		c.pool = append(c.pool, e)
	}
	for i := range c.loadMisses {
		lm := &c.loadMisses[i]
		kept := lm.waiters[:0]
		for _, w := range lm.waiters {
			if w.seq < cut {
				kept = append(kept, w)
			}
		}
		lm.waiters = kept
	}
	if c.mispredicted != nil && c.mispredicted.seq >= cut {
		c.mispredicted = nil
	}
	c.rob = c.rob[:idx]
	c.lq = c.lq[:seqIndex(c.lq, cut)]
	c.sq = c.sq[:seqIndex(c.sq, cut)]
	c.fetchEnd = false
}

// undoTo unwinds the fetch-side register undo log, youngest first,
// removing every record with seq >= cut.
func (c *Core) undoTo(cut uint64) {
	n := len(c.undoLog)
	for n > 0 && c.undoLog[n-1].seq >= cut {
		n--
		c.regs[c.undoLog[n].reg] = c.undoLog[n].prev
	}
	c.undoLog = c.undoLog[:n]
}

// redirectMispredict squashes the wrong-path instructions younger than the
// oldest mispredicted branch and redirects fetch to the correct target.
// It runs once per cycle at the step boundary (a one-cycle redirect
// penalty, as in a real pipeline).
func (c *Core) redirectMispredict() {
	e := c.mispredicted
	c.mispredicted = nil
	if e == nil {
		return
	}
	idx := c.robIndex(e)
	if idx < 0 {
		return
	}
	c.st.Mispredicts++
	if idx+1 < len(c.rob) {
		c.squashFrom(idx + 1)
	}
	if e.actualTaken {
		c.pc = e.in.Target
	} else {
		c.pc = e.pc + 1
	}
	c.fetchEnd = false
}

// squashSpeculativeLoads squashes performed-but-unretired loads to line l
// (an incoming invalidation conflicts with them). It returns whether any
// squash happened.
func (c *Core) squashSpeculativeLoads(now int64, l mem.Line) bool {
	for i, e := range c.rob {
		if e.in.Op == isa.Ld && e.performed && !e.forwarded && e.line() == l {
			c.st.Squashes++
			c.tr.Emit(now, trace.KSquash, int32(c.cfg.ID), uint64(l), int64(e.pc), 0, 0)
			c.squashFrom(i)
			return true
		}
	}
	return false
}
