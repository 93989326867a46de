package cpu

import (
	"fmt"
	"slices"

	"asymfence/internal/fence"
	"asymfence/internal/isa"
)

// CheckQueues exposes checkQueues to the external test package.
func (c *Core) CheckQueues() error { return c.checkQueues() }

// RobBound exposes robBound to the external test package.
func RobBound(prog *isa.Program, robSize int) int { return robBound(prog, robSize) }

// checkQueues verifies the load and store queues against the ROB (lq
// must hold exactly the ROB's unissued loads and sq exactly its St and
// Xchg entries, both in ROB order), then the producer references and
// wakeup lists (see checkProducers), then the undo log's length (see
// checkUndoLog).
func (c *Core) checkQueues() error {
	var lq, sq []*robEntry
	for _, e := range c.rob {
		if e.in.Op == isa.Ld && !e.issued {
			lq = append(lq, e)
		}
		if e.isStore() {
			sq = append(sq, e)
		}
	}
	if !slices.Equal(c.lq, lq) {
		return fmt.Errorf("core %d: lq holds seqs %v, the ROB's unissued loads are %v", c.cfg.ID, seqs(c.lq), seqs(lq))
	}
	if !slices.Equal(c.sq, sq) {
		return fmt.Errorf("core %d: sq holds seqs %v, the ROB's stores are %v", c.cfg.ID, seqs(c.sq), seqs(sq))
	}
	if err := c.checkProducers(); err != nil {
		return err
	}
	return c.checkUndoLog()
}

// checkUndoLog verifies the bound that pruning every cycle keeps: the
// undo log holds at most undoPrune records plus one per ROB entry, and
// under W+ also the records retired since its oldest active fence,
// which a rollback reads.
func (c *Core) checkUndoLog() error {
	bound := undoPrune + len(c.rob)
	if c.cfg.Design == fence.WPlus && len(c.fences) > 0 {
		head := c.seq + 1
		if len(c.rob) > 0 {
			head = c.rob[0].seq
		}
		for _, u := range c.undoLog {
			if u.seq > c.fences[0].seq && u.seq < head {
				bound++
			}
		}
	}
	if len(c.undoLog) > bound {
		return fmt.Errorf("core %d: the undo log holds %d records, want at most %d", c.cfg.ID, len(c.undoLog), bound)
	}
	return nil
}

// checkProducers verifies the invariant that lets ROB entries be
// recycled. Every one of the core's robCap entries is in the ROB or in
// the pool, so the ROB never needs more than robBound. Every non-nil
// producer reference, in a ROB entry's operands, in the fetch-side
// registers and in the undo log, names an unresolved entry in the ROB
// that is older than its holder. Every operand on a producer's wakeup
// list belongs to an entry in the ROB and waits on that producer, the
// list runs youngest holder first, and the lists hold exactly the
// operands that wait.
func (c *Core) checkProducers() error {
	if c.pool != nil && len(c.pool)+len(c.rob) != c.robCap {
		return fmt.Errorf("core %d: %d entries in the pool and %d in the ROB, want %d in all", c.cfg.ID, len(c.pool), len(c.rob), c.robCap)
	}
	inROB := func(p *robEntry) bool { return c.robIndex(p) >= 0 }
	bad := func(p *robEntry, holderSeq uint64) bool {
		return !inROB(p) || p.resolved || p.seq >= holderSeq
	}
	waiting, listed := 0, 0
	for _, e := range c.rob {
		for _, o := range []*operand{&e.s1, &e.s2} {
			if o.prod == nil {
				continue
			}
			waiting++
			if bad(o.prod, e.seq) {
				return fmt.Errorf("core %d: entry seq=%d waits on seq=%d, which is resolved, younger or out of the ROB", c.cfg.ID, e.seq, o.prod.seq)
			}
		}
		prevSeq := c.seq + 1
		for o := e.waiters; o != nil; o = o.next {
			listed++
			if listed > 2*len(c.rob) {
				return fmt.Errorf("core %d: wakeup lists hold more operands than the ROB has", c.cfg.ID)
			}
			h := o.holder
			if h == nil || !inROB(h) || o.prod != e || (o != &h.s1 && o != &h.s2) {
				return fmt.Errorf("core %d: wakeup list of seq=%d holds an operand that is out of the ROB or does not wait on it", c.cfg.ID, e.seq)
			}
			if h.seq > prevSeq {
				return fmt.Errorf("core %d: wakeup list of seq=%d is not youngest first", c.cfg.ID, e.seq)
			}
			prevSeq = h.seq
		}
	}
	if waiting != listed {
		return fmt.Errorf("core %d: %d operands wait on a producer, the wakeup lists hold %d", c.cfg.ID, waiting, listed)
	}
	for r, rv := range c.regs {
		if rv.prod != nil && bad(rv.prod, c.seq+1) {
			return fmt.Errorf("core %d: r%d names producer seq=%d, which is resolved or out of the ROB", c.cfg.ID, r, rv.prod.seq)
		}
	}
	for _, u := range c.undoLog {
		if p := u.prev.prod; p != nil && bad(p, u.seq) {
			return fmt.Errorf("core %d: undo record seq=%d (r%d) names producer seq=%d, which is resolved, younger or out of the ROB", c.cfg.ID, u.seq, u.reg, p.seq)
		}
	}
	return nil
}

func seqs(q []*robEntry) []uint64 {
	s := make([]uint64, len(q))
	for i, e := range q {
		s[i] = e.seq
	}
	return s
}
