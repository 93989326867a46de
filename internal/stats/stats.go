// Package stats defines the measurement types shared by the core model
// and the experiment harness: per-core cycle breakdowns in the paper's
// three categories (busy / fence stall / other stall) and the fence
// characterization counters behind Table 4.
package stats

// Core accumulates one simulated core's measurements.
type Core struct {
	// Cycle breakdown (paper Figs. 8, 10, 11). A cycle is Busy when the
	// core retires at least one instruction or is executing modeled
	// computation; FenceStall when retirement is blocked by fence
	// semantics (an incomplete strong fence at the ROB head, a post-fence
	// load held by Remote-PS/confinement/BS-capacity, or W+ recovery
	// drain); OtherStall for memory and pipeline hazards; Idle after the
	// thread halts (and before global completion).
	BusyCycles, FenceStallCycles, OtherStallCycles, IdleCycles uint64

	RetiredInstrs uint64

	// Fence dynamics. SFences counts fences executed with strong-fence
	// behavior, including weak fences demoted by WeeFence's
	// single-directory-module confinement rule; WFences counts fences
	// executed with weak behavior. DemotedWFences counts the demotions
	// separately (subset of SFences).
	SFences, WFences, DemotedWFences uint64

	// Write bouncing, from the bounced writer's perspective (Table 4
	// columns 6-7): how many of this core's writes ever bounced off a
	// remote Bypass Set, and the total number of retries they needed.
	BouncedWrites, BounceRetries uint64

	// BouncesGiven counts incoming write transactions this core's Bypass
	// Set rejected.
	BouncesGiven uint64

	// Squashes counts speculative post-fence loads squashed by
	// conflicting invalidations.
	Squashes uint64

	// Mispredicts counts branch mispredictions (predicted branches whose
	// resolved outcome differed).
	Mispredicts uint64

	// Recoveries counts W+ deadlock rollbacks (Table 4 column 10).
	Recoveries uint64

	// OrderOps / CondOrderOps count Order and Conditional Order
	// transactions this core initiated.
	OrderOps, CondOrderOps uint64

	// BSLinesSum / BSLinesSamples sample Bypass Set occupancy at weak
	// fence completion (Table 4 "#lines/BS").
	BSLinesSum, BSLinesSamples uint64

	// Events are the ISA-level Stat counters (committed transactions,
	// executed tasks, steals, aborts, ...). Indexed by the Stat id.
	Events map[int32]uint64

	// FenceSiteStall attributes fence-stall cycles to the program counter
	// of the instruction blocked at the retirement head (the fence
	// itself, or a post-fence load held by fence rules) — a profile of
	// which fence sites hurt.
	FenceSiteStall map[int]uint64

	// HaltCycle is when the thread halted (-1 if it ran to the horizon).
	HaltCycle int64
}

// Common Stat event ids used by the workloads.
const (
	EvTask        = 1 // work-stealing: task executed
	EvSteal       = 2 // work-stealing: task obtained by stealing
	EvCommit      = 3 // STM: transaction committed
	EvAbort       = 4 // STM: transaction aborted/retried
	EvCritical    = 5 // bakery: critical section entered
	EvIteration   = 6 // generic loop iteration marker
	EvWriteCommit = 7 // STM: committed transaction that performed writes
)

// NewCore returns an empty Core stats block.
func NewCore() *Core {
	return &Core{
		Events:         make(map[int32]uint64),
		FenceSiteStall: make(map[int]uint64),
		HaltCycle:      -1,
	}
}

// Event increments an ISA-level event counter.
func (c *Core) Event(id int32) { c.Events[id]++ }

// TotalCycles returns the sum of the counted (non-idle) categories.
func (c *Core) TotalCycles() uint64 {
	return c.BusyCycles + c.FenceStallCycles + c.OtherStallCycles
}

// Counter is one uint64 counter of a stats block (Core, or the
// directory's DirStats): its name in the simulator's result digest, and
// the field itself.
type Counter struct {
	Name string
	Val  *uint64
}

// Counters returns c's uint64 counters in declaration order, each with
// its digest name. Add, the simulator's result digest and the
// measurement store's record all walk this one list.
func (c *Core) Counters() [18]Counter {
	return [...]Counter{
		{"busy", &c.BusyCycles}, {"fence", &c.FenceStallCycles},
		{"other", &c.OtherStallCycles}, {"idle", &c.IdleCycles},
		{"retired", &c.RetiredInstrs},
		{"sf", &c.SFences}, {"wf", &c.WFences}, {"demoted", &c.DemotedWFences},
		{"bw", &c.BouncedWrites}, {"br", &c.BounceRetries}, {"bg", &c.BouncesGiven},
		{"sq", &c.Squashes}, {"mp", &c.Mispredicts}, {"rec", &c.Recoveries},
		{"oo", &c.OrderOps}, {"coo", &c.CondOrderOps},
		{"bss", &c.BSLinesSum}, {"bsn", &c.BSLinesSamples},
	}
}

// Add merges other into c (used to aggregate across cores).
func (c *Core) Add(o *Core) {
	dst, src := c.Counters(), o.Counters()
	for i := range dst {
		*dst[i].Val += *src[i].Val
	}
	for k, v := range o.Events {
		c.Events[k] += v
	}
	for k, v := range o.FenceSiteStall {
		c.FenceSiteStall[k] += v
	}
}

// SiteStall is one entry of the fence-site profile.
type SiteStall struct {
	PC     int
	Cycles uint64
}

// costlier reports whether s ranks before o: more stall, or as much at
// a lower PC.
func (s SiteStall) costlier(o SiteStall) bool {
	return s.Cycles > o.Cycles || s.Cycles == o.Cycles && s.PC < o.PC
}

// TopFenceSites returns the n fence sites with the most attributed stall,
// most expensive first and tied sites by ascending PC, so the cut is
// the same on every call.
func (c *Core) TopFenceSites(n int) []SiteStall {
	out := make([]SiteStall, 0, len(c.FenceSiteStall))
	for pc, cyc := range c.FenceSiteStall {
		out = append(out, SiteStall{PC: pc, Cycles: cyc})
	}
	// Insertion sort: profiles are small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].costlier(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if n < len(out) {
		out = out[:n]
	}
	return out
}
