package cpu

import (
	"fmt"
	"slices"

	"asymfence/internal/isa"
)

// CheckQueues exposes checkQueues to the external test package.
func (c *Core) CheckQueues() error { return c.checkQueues() }

// checkQueues verifies the load and store queues against the ROB: lq
// must hold exactly the ROB's unissued loads and sq exactly its St and
// Xchg entries, both in ROB order.
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
	return nil
}

func seqs(q []*robEntry) []uint64 {
	s := make([]uint64, len(q))
	for i, e := range q {
		s[i] = e.seq
	}
	return s
}
