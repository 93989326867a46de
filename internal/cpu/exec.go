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
// (unretired ones in the ROB, then the write buffer) for a matching
// address.
func (c *Core) issueLoads(now int64) {
	outstanding := len(c.loadMisses)
	// Recompute the earliest future address-ready among unissued loads
	// (an idle-memoization wake term: nothing else re-examines a load
	// whose address resolved with a future ready time).
	c.issueWake = math.MaxInt64
	for i, e := range c.rob {
		if e.in.Op != isa.Ld || e.squashed || e.issued || e.performed {
			continue
		}
		if !e.addrOK {
			continue
		}
		if now < e.addrReady {
			if e.addrReady < c.issueWake {
				c.issueWake = e.addrReady
			}
			continue
		}
		fwd, ok := c.searchOlderStores(i, e)
		if !ok {
			continue // an older store's address or data is unresolved
		}
		if fwd != nil {
			e.issued = true
			e.forwarded = true
			c.acted = true
			c.performLoadValue(now+1, e, fwd.val)
			continue
		}
		line := e.line()
		if _, hit := c.l1.Lookup(line); hit {
			e.issued = true
			c.acted = true
			c.performLoad(now+l1HitLatency, e)
			continue
		}
		// Miss: merge into an outstanding request for the line or send a
		// new GetS, subject to the MSHR limit.
		if lm, ok := c.loadMisses[line]; ok {
			e.issued = true
			c.acted = true
			lm.waiters = append(lm.waiters, e)
			continue
		}
		if outstanding >= mshrs {
			continue
		}
		outstanding++
		e.issued = true
		lm := c.newLoadMiss()
		lm.line = line
		lm.reqID = c.nextReqID()
		lm.waiters = append(lm.waiters, e)
		c.loadMisses[line] = lm
		c.send(now, c.home(line), coherence.Msg{
			Type: coherence.GetS, Line: line, Core: c.cfg.ID, ReqID: lm.reqID,
		}, noc.CatProtocol)
	}
}

// fwdHit describes a store-to-load forwarding source.
type fwdHit struct{ val uint32 }

// searchOlderStores looks for the youngest older store writing the load's
// word. It returns (nil, false) when disambiguation is impossible (an
// older store's address is unknown) or the matching store's data is not
// ready yet; (hit, true) on a forwarding match; (nil, true) when the load
// may access memory.
func (c *Core) searchOlderStores(idx int, ld *robEntry) (*fwdHit, bool) {
	// Unretired older stores, youngest first.
	for i := idx - 1; i >= 0; i-- {
		e := c.rob[i]
		if e.squashed || (e.in.Op != isa.St && e.in.Op != isa.Xchg) {
			continue
		}
		if !e.addrOK {
			return nil, false
		}
		if e.addr == ld.addr {
			if e.in.Op == isa.Xchg {
				// Atomics execute at the ROB head; the load simply waits.
				return nil, false
			}
			if !e.dataOK {
				return nil, false
			}
			return &fwdHit{val: e.dataVal}, true
		}
	}
	// Write buffer, youngest first.
	for i := len(c.wb) - 1; i >= 0; i-- {
		if c.wb[i].addr == ld.addr {
			return &fwdHit{val: c.wb[i].val}, true
		}
	}
	return nil, true
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
	if rv := &c.regs[e.in.Dst]; rv.prod == e {
		rv.known = true
		rv.val = e.val
		rv.ready = e.ready
		rv.prod = nil
	}
	c.propagate(when, e)
}

// handleLoadGrant completes an outstanding load miss.
func (c *Core) handleLoadGrant(now int64, m coherence.Msg) {
	lm, ok := c.loadMisses[m.Line]
	if !ok || lm.reqID != m.ReqID {
		return // stale response for a squashed transaction
	}
	delete(c.loadMisses, m.Line)
	st := cache.Shared
	if m.Type == coherence.GrantE {
		st = cache.Exclusive
	}
	c.installL1(now, m.Line, st)
	for _, e := range lm.waiters {
		if !e.squashed {
			c.performLoad(now, e)
		}
	}
	// The map entry above was the only live reference; recycle.
	lm.waiters = lm.waiters[:0]
	c.lmPool = append(c.lmPool, lm)
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
func (c *Core) squashFrom(idx int) {
	cut := c.rob[idx].seq
	c.undoTo(cut)
	// Drop the squashed entries and cancel their memory transactions.
	for _, e := range c.rob[idx:] {
		e.squashed = true
		c.robSlots -= e.slots
		if e.in.Op == isa.Work {
			c.workFree = e.prevWork
		}
	}
	for line, lm := range c.loadMisses {
		kept := lm.waiters[:0]
		for _, w := range lm.waiters {
			if !w.squashed {
				kept = append(kept, w)
			}
		}
		lm.waiters = kept
		_ = line
	}
	c.pc = c.rob[idx].pc
	c.rob = c.rob[:idx]
	c.fetchEnd = false
}

// undoTo unwinds the fetch-side register undo log, youngest first,
// removing every record with seq >= cut. Restored producer references that
// have since resolved are materialized to values.
func (c *Core) undoTo(cut uint64) {
	n := len(c.undoLog)
	for n > 0 && c.undoLog[n-1].seq >= cut {
		u := c.undoLog[n-1]
		prev := u.prev
		if prev.prod != nil && prev.prod.resolved {
			prev.known = true
			prev.val = prev.prod.val
			prev.ready = prev.prod.ready
			prev.prod = nil
		}
		c.regs[u.reg] = prev
		n--
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
	if e == nil || e.squashed {
		return
	}
	idx := -1
	for i, x := range c.rob {
		if x == e {
			idx = i
			break
		}
	}
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
		if e.squashed {
			continue
		}
		if e.in.Op == isa.Ld && e.performed && !e.forwarded && e.line() == l {
			c.st.Squashes++
			c.tr.Emit(now, trace.KSquash, int32(c.cfg.ID), uint64(l), int64(e.pc), 0, 0)
			c.squashFrom(i)
			return true
		}
	}
	return false
}
