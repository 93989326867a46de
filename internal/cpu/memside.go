package cpu

import (
	"math"
	"sort"

	"asymfence/internal/cache"
	"asymfence/internal/coherence"
	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/noc"
	"asymfence/internal/trace"
)

// drainWB advances the TSO write buffer: only the head store's coherence
// transaction may be in flight at a time ("TSO only allows one write to
// merge with the memory system at a time").
func (c *Core) drainWB(now int64) {
	if len(c.wb) == 0 || c.wbInFlight || now < c.wbRetryAt {
		return
	}
	if c.flt != nil && !c.wbStalled {
		// Fault injection: one stall draw per head drain attempt. The
		// delay lands on wbRetryAt, which computeWake already considers,
		// so a stalled core still sleeps and wakes correctly.
		c.wbStalled = true
		if d := c.flt.WBDelay(c.cfg.ID); d > 0 {
			c.wbRetryAt = now + d
			return
		}
	}
	h := c.wb[0]
	line := mem.LineOf(h.addr)
	if st, ok := c.l1.Peek(line); ok && (st == cache.Modified || st == cache.Exclusive) {
		// Write hit: complete locally.
		c.l1.SetState(line, cache.Modified)
		c.commitStore(now, h.addr, h.val, h.seq)
		c.completeHeadStore(now)
		return
	}
	// Need ownership. A previously bounced store may be turned into an
	// Order (WS+) or Conditional Order (SW+) request once a weak fence
	// that follows it in program order has executed (paper §3.3.1-.2).
	order := false
	var mask uint8
	if c.wbBounced && c.coveringWF(h.seq) {
		switch c.cfg.Design {
		case fence.WSPlus:
			order = true
		case fence.SWPlus:
			order = true
			mask = mem.WordMaskOf(h.addr)
		}
	}
	c.wbOrder = order
	c.wbReqID = c.nextReqID()
	c.wbInFlight = true
	if c.wbBounced {
		var ord int64
		if order {
			ord = 1
		}
		c.tr.Emit(now, trace.KWBRetry, int32(c.cfg.ID), uint64(line), int64(h.seq), ord, 0)
	}
	c.send(now, c.home(line), coherence.Msg{
		Type: coherence.GetM, Line: line, Core: c.cfg.ID, ReqID: c.wbReqID,
		Order: order, WordMask: mask, Retry: c.wbBounced,
	}, noc.CatProtocol)
}

// coveringWF reports whether an active weak fence follows the store in
// program order (i.e. the store is a pre-fence access of an executed wf).
func (c *Core) coveringWF(storeSeq uint64) bool {
	for i := range c.fences {
		if c.fences[i].seq > storeSeq {
			return true
		}
	}
	return false
}

// commitStore merges one write-buffer store with the memory system,
// notifying the invariant oracle of the commit.
func (c *Core) commitStore(now int64, a mem.Addr, v uint32, seq uint64) {
	c.store.StoreWord(a, v)
	if c.chk != nil {
		c.chk.OnStoreCommit(now, c.cfg.ID, a, v, seq)
	}
}

func (c *Core) completeHeadStore(now int64) {
	c.acted = true
	c.wb = c.wb[1:]
	c.wbInFlight = false
	c.wbBounced = false
	c.wbOrder = false
	c.wbRetryAt = 0
	c.wbStalled = false
	c.completeFences(now)
}

// handleStoreGrant processes the response to the write-buffer head's
// transaction.
func (c *Core) handleStoreGrant(now int64, m coherence.Msg) {
	if !c.wbInFlight || m.ReqID != c.wbReqID || len(c.wb) == 0 {
		return // stale (e.g. dropped by a W+ rollback that kept the store)
	}
	h := c.wb[0]
	switch m.Type {
	case coherence.GrantM:
		c.installL1(now, m.Line, cache.Modified)
		c.commitStore(now, h.addr, h.val, h.seq)
		c.completeHeadStore(now)
	case coherence.GrantOrder:
		// Order / successful CO: the update merges but the line stays
		// Shared locally; BS matchers remain sharers at the directory.
		c.installL1(now, m.Line, cache.Shared)
		c.commitStore(now, h.addr, h.val, h.seq)
		if m.ReqID == c.wbReqID {
			if c.cfg.Design == fence.SWPlus {
				c.st.CondOrderOps++
			} else {
				c.st.OrderOps++
			}
		}
		c.completeHeadStore(now)
	case coherence.NackRetry:
		if !c.wbBounced {
			c.wbBounced = true
			c.st.BouncedWrites++
		}
		c.st.BounceRetries++
		c.tr.Emit(now, trace.KWBBounce, int32(c.cfg.ID), uint64(m.Line), int64(h.seq), 0, 0)
		c.wbInFlight = false
		c.wbRetryAt = now + retryBackoff
		c.wbStalled = false
	}
}

func (c *Core) handleAtomGrant(now int64, m coherence.Msg) {
	if !c.atomInFlight || m.ReqID != c.atomReqID {
		return
	}
	switch m.Type {
	case coherence.GrantM:
		c.atomInFlight = false
		c.installL1(now, m.Line, cache.Modified)
		if c.atomEntry != nil {
			c.performAtomic(now, c.atomEntry)
		}
		c.atomEntry = nil
	case coherence.NackRetry:
		c.atomInFlight = false
		c.atomRetryAt = now + retryBackoff
	}
}

// HandleMsg processes one incoming protocol message addressed to this
// core's cache controller.
func (c *Core) HandleMsg(now int64, m coherence.Msg) {
	// Any incoming message can unblock the pipeline in ways computeWake
	// cannot predict; wake the core for a full evaluation this cycle
	// (messages are delivered before cores step).
	c.wakeAt = 0
	switch m.Type {
	case coherence.GrantS, coherence.GrantE:
		c.handleLoadGrant(now, m)
	case coherence.GrantM, coherence.GrantOrder, coherence.NackRetry:
		// Demultiplex between the write-buffer and atomic transactions.
		if c.wbInFlight && m.ReqID == c.wbReqID {
			c.handleStoreGrant(now, m)
		} else {
			c.handleAtomGrant(now, m)
		}
	case coherence.InvReq:
		c.handleInv(now, m)
	case coherence.DowngradeReq:
		c.handleDowngrade(now, m)
	case coherence.WeeDepositAck:
		if c.weeDepositSent && m.ReqID == c.weeReqID {
			c.weeDepositAck = true
			c.weeRemote = m.PS
		}
	default:
		panic("cpu: core got " + m.Type.String())
	}
}

// handleInv is the Bypass-Set-aware invalidation path (paper §3.2-3.3):
//
//   - plain invalidation matching the BS: bounce (InvNack), keep the copy;
//   - O-bit invalidation: always invalidate, but a BS match makes us ask
//     to be kept as a sharer, reporting word-level true sharing for CO;
//   - otherwise: squash conflicting speculative loads, invalidate, ack.
func (c *Core) handleInv(now int64, m coherence.Msg) {
	hit, words := false, uint8(0)
	if c.cfg.Design.UsesBS() {
		hit, words = c.bs.Match(m.Line)
	}
	if hit && !m.Order {
		c.st.BouncesGiven++
		c.tr.Emit(now, trace.KBSBounce, int32(c.cfg.ID), uint64(m.Line), int64(m.Core), 0, 0)
		if len(c.fences) > 0 {
			c.bouncedExternal = true
		}
		c.send(now, c.home(m.Line), coherence.Msg{
			Type: coherence.InvNack, Line: m.Line, Core: c.cfg.ID, ReqID: m.ReqID,
		}, noc.CatProtocol)
		return
	}
	c.squashSpeculativeLoads(now, m.Line)
	_, dirty := c.l1.Invalidate(m.Line)
	if c.chk != nil {
		c.chk.MarkLine(m.Line)
	}
	if hit {
		trueShare := m.WordMask != 0 && m.WordMask&words != 0
		c.send(now, c.home(m.Line), coherence.Msg{
			Type: coherence.InvAckKeep, Line: m.Line, Core: c.cfg.ID,
			ReqID: m.ReqID, TrueShare: trueShare, Dirty: dirty,
		}, noc.CatProtocol)
		return
	}
	c.send(now, c.home(m.Line), coherence.Msg{
		Type: coherence.InvAck, Line: m.Line, Core: c.cfg.ID, ReqID: m.ReqID,
		Dirty: dirty,
	}, noc.CatProtocol)
}

// handleDowngrade services a read by another core: M -> S with writeback.
// Bypass Sets never block reads; losing exclusivity does not hurt their
// ability to observe future writes (paper §5.1).
func (c *Core) handleDowngrade(now int64, m coherence.Msg) {
	st, ok := c.l1.Peek(m.Line)
	dirty := ok && st == cache.Modified
	if ok {
		c.l1.SetState(m.Line, cache.Shared)
		if c.chk != nil {
			c.chk.MarkLine(m.Line)
		}
	}
	c.send(now, c.home(m.Line), coherence.Msg{
		Type: coherence.DowngradeAck, Line: m.Line, Core: c.cfg.ID,
		ReqID: m.ReqID, Dirty: dirty,
	}, noc.CatProtocol)
}

// completeFences retires active weak fences whose pre-fence stores have
// all merged (the write buffer drained past their watermark). Fences
// complete oldest first.
func (c *Core) completeFences(now int64) {
	for len(c.fences) > 0 {
		f := c.fences[0]
		if len(c.wb) > 0 && c.wb[0].seq < f.seq {
			return // a pre-fence store is still pending
		}
		c.acted = true
		// Sample BS occupancy for Table 4 before dropping the entries.
		c.st.BSLinesSum += uint64(c.bs.Len())
		c.st.BSLinesSamples++
		c.tr.Emit(now, trace.KFenceComplete, int32(c.cfg.ID), 0, int64(f.seq), int64(c.bs.Len()), 0)
		if c.chk != nil {
			c.chk.OnFenceComplete(now, c.cfg.ID, f.seq)
		}
		c.bs.CompleteFence(f.seq)
		if f.wee {
			c.sendGRT(now, f.module, coherence.Msg{Type: coherence.WeeRemove, ReqID: f.weeID})
		}
		c.fences = c.fences[:copy(c.fences, c.fences[1:])]
	}
	if len(c.fences) == 0 {
		c.bouncedExternal = false
		c.timeoutArmed = false
		c.statLog = c.statLog[:0]
	}
}

// pruneUndoLog drops, once the log holds undoPrune records, every record
// that no squash or rollback can read. squashFrom never undoes past the
// ROB head, so the records older than it can go; only recoverWPlus
// undoes further, to just after its oldest active fence, so W+ keeps the
// records since that fence too. Step prunes after every retire, so the
// log holds at most undoPrune records plus one per ROB entry, and under
// W+ those retired since the oldest active fence.
func (c *Core) pruneUndoLog() {
	if len(c.undoLog) < undoPrune {
		return
	}
	cut := c.seq + 1
	if len(c.rob) > 0 {
		cut = c.rob[0].seq
	}
	if c.cfg.Design == fence.WPlus && len(c.fences) > 0 {
		cut = min(cut, c.fences[0].seq+1)
	}
	if i := sort.Search(len(c.undoLog), func(i int) bool { return c.undoLog[i].seq >= cut }); i > 0 {
		c.undoLog = c.undoLog[:copy(c.undoLog, c.undoLog[i:])]
		c.undoBase += i
	}
}

// checkWPlusTimeout implements the W+ deadlock suspicion logic: when this
// core simultaneously (1) has a bounced pre-fence write and (2) has
// bounced an external request since its fence began, a timeout arms; on
// expiry the core assumes deadlock and rolls back (paper §3.3.3).
func (c *Core) checkWPlusTimeout(now int64) {
	if c.cfg.Design != fence.WPlus || len(c.fences) == 0 {
		return
	}
	suspect := c.wbBounced && c.bouncedExternal
	if !suspect {
		c.timeoutArmed = false
		return
	}
	if !c.timeoutArmed {
		c.timeoutArmed = true
		c.timeoutAt = now + c.cfg.WPlusTimeout
		return
	}
	if now >= c.timeoutAt {
		c.recoverWPlus(now)
	}
}

// recoverWPlus restores the checkpoint taken at the oldest active weak
// fence: registers and PC roll back to just after the fence, post-fence
// write-buffer entries are dropped, the Bypass Set is cleared, and the
// core waits for the write buffer to drain (which completes all pre-fence
// accesses) before resuming. The same deadlock is then impossible.
func (c *Core) recoverWPlus(now int64) {
	f := c.fences[0]
	c.acted = true
	c.st.Recoveries++
	c.tr.Emit(now, trace.KRecovery, int32(c.cfg.ID), 0, int64(f.seq), int64(f.pcAfter), 0)
	if c.chk != nil {
		// The oracle discards its post-fence mirror state exactly as the
		// core does: write-buffer entries with seq >= f.seq are dropped.
		c.chk.OnRollback(now, c.cfg.ID, f.seq)
	}
	c.undoTo(f.seq + 1)
	// Un-count Stat events that will be replayed.
	keep := c.statLog[:0]
	for _, s := range c.statLog {
		if s.seq > f.seq {
			c.st.Events[s.id]--
		} else {
			keep = append(keep, s)
		}
	}
	c.statLog = keep
	// Every ROB entry is squashed, producers with them, so no wakeup list
	// needs unlinking; the entries return to the pool.
	c.pool = append(c.pool, c.rob...)
	c.rob, c.lq, c.sq = c.rob[:0], c.lq[:0], c.sq[:0]
	c.robSlots = 0
	for i := range c.loadMisses {
		c.loadMisses[i].waiters = c.loadMisses[i].waiters[:0]
	}
	c.atomEntry = nil
	c.mispredicted = nil
	kept := c.wb[:0]
	for _, w := range c.wb {
		if w.seq < f.seq {
			kept = append(kept, w)
		}
	}
	c.wb = kept
	c.bs.Clear()
	c.fences = c.fences[:0]
	c.pc = f.pcAfter
	c.fetchEnd = false
	c.draining = true
	c.workFree = now
	c.timeoutArmed = false
	c.bouncedExternal = false
	c.pruneUndoLog()
}

// Step advances the core by one cycle. The simulator has already delivered
// this cycle's incoming messages via HandleMsg. It steps a sleeping core
// again only once a message arrives or its wake time comes, and Step
// first charges the cycles since the core last stepped (see Sync).
func (c *Core) Step(now int64) {
	if c.finished {
		c.Sync(now)
		return
	}
	c.Sync(now - 1)
	c.synced = now
	c.acted = false
	c.redirectMispredict()
	if c.draining {
		c.drainWB(now)
		if len(c.wb) == 0 && !c.wbInFlight {
			c.draining = false
		} else {
			c.stallKind = stallDrain
			c.charge(1)
			c.maybeSleep(now)
			return
		}
	}
	c.drainWB(now)
	c.completeFences(now)
	c.issueLoads(now)
	retired, reason, blockPC := c.retire(now)
	c.pruneUndoLog()
	c.fetch(now)
	c.checkWPlusTimeout(now)

	// The halting cycle itself counts as busy.
	switch {
	case c.finished || retired > 0 || reason == rWork:
		c.stallKind = stallBusy
	case reason == rFence:
		c.stallKind, c.stallPC = stallFence, blockPC
	default:
		c.stallKind = stallOther
	}
	c.charge(1)
	if c.finished || retired > 0 {
		c.wakeAt = 0
		return
	}
	c.maybeSleep(now)
}

// Sync charges every cycle after the last one the core was stepped or
// charged for, through now, to what stepping it would have charged: idle
// once finished, otherwise the category its last Step charged. Only Step
// changes the category or finishes the core, and the machine steps a
// sleeping core again in the cycle a message arrives for it or at its
// wake time, whichever is first, so the category holds for every cycle
// in between: computeWake accounts for every time-gated transition. The
// machine calls Sync before anything reads the core's counters.
func (c *Core) Sync(now int64) {
	n := now - c.synced
	if n <= 0 {
		return
	}
	c.synced = now
	if c.finished {
		c.st.IdleCycles += uint64(n)
		return
	}
	c.charge(uint64(n))
}

// charge adds n cycles to the counters of the category stallKind, and a
// fence stall to its fence's site as well. Step charges the cycle it
// steps through it and Sync the cycles a sleeping core skipped, so a
// skipped cycle counts exactly as stepping it would have.
func (c *Core) charge(n uint64) {
	switch c.stallKind {
	case stallBusy:
		c.st.BusyCycles += n
	case stallFence:
		c.st.FenceStallCycles += n
		if c.stallPC >= 0 {
			c.st.FenceSiteStall[c.stallPC] += n
		}
	case stallDrain:
		c.st.FenceStallCycles += n
	default:
		c.st.OtherStallCycles += n
	}
}

// maybeSleep arms the idle fast path after a Step that retired nothing:
// unless something acted this cycle (in which case follow-up work may be
// possible immediately), the core sleeps until the earliest time-gated
// event. An early (spurious) wake is harmless; missing an event would not
// be, so computeWake is conservative.
func (c *Core) maybeSleep(now int64) {
	c.wakeAt = 0
	if c.acted || c.cfg.NoIdleSleep {
		return
	}
	c.wakeAt = c.computeWake(now)
}

// computeWake enumerates every purely time-gated reason the blocked core
// could make progress and returns the earliest, or math.MaxInt64 when
// progress requires a message. Dataflow resolution is eager (values
// propagate the cycle their producer performs), so it never gates on time
// by itself; the gates are head-of-ROB ready times, the write-buffer and
// atomic retry backoffs, the W+ timeout and the future address-ready
// times of unissued loads.
func (c *Core) computeWake(now int64) int64 {
	wake := int64(math.MaxInt64)
	consider := func(t int64) {
		if t > now && t < wake {
			wake = t
		}
	}
	if len(c.rob) > 0 {
		e := c.rob[0]
		switch e.in.Op {
		case isa.Ld:
			if e.performed {
				consider(e.ready)
			}
		case isa.St:
			if e.addrOK && e.dataOK {
				consider(maxi64(e.addrReady, e.dataReady))
			}
		case isa.Xchg:
			if e.performed {
				consider(e.ready)
			} else if !c.atomInFlight {
				consider(c.atomRetryAt)
				if e.addrOK && e.dataOK {
					consider(maxi64(e.addrReady, e.dataReady))
				}
			}
		case isa.SFence, isa.WFence:
			// Fences have no time gate of their own: they wait for the
			// write buffer (its retry term is below) or for messages.
		default:
			// Work, ALU ops, branches, Halt: once resolved they wait only
			// for their ready time; unresolved entries resolve on events.
			if e.resolved {
				consider(e.ready)
			}
		}
	}
	if len(c.wb) > 0 && !c.wbInFlight {
		consider(c.wbRetryAt)
	}
	if c.timeoutArmed {
		consider(c.timeoutAt)
	}
	consider(c.issueWake)
	return wake
}

// WakeAt reports the earliest cycle after now at which this core may act:
// now+1 when it is awake, its recorded wake time when it sleeps, or
// math.MaxInt64 when it is finished or waiting only for messages. The
// machine steps the core next at that cycle, or at the cycle a message
// arrives for it if that is sooner, and bounds clock jumps by it.
func (c *Core) WakeAt(now int64) int64 {
	if c.finished {
		return math.MaxInt64
	}
	if c.wakeAt <= now {
		return now + 1
	}
	return c.wakeAt
}

// Pending reports whether the core still has in-flight machine state
// (quiesce detection for the simulator).
func (c *Core) Pending() bool {
	if !c.finished || len(c.wb) > 0 || c.wbInFlight || c.atomInFlight {
		return true
	}
	for i := range c.loadMisses {
		if c.loadMisses[i].busy {
			return true
		}
	}
	return false
}
