// Package cpu models the out-of-order cores of the simulated multicore
// (Table 2: 4-issue, 140-entry ROB, 64-entry write buffer, TSO) together
// with the requester/sharer side of the coherence protocol and the five
// fence designs of the paper (S+, WS+, SW+, W+, Wee).
//
// Execution is functional+timing combined: instructions are fetched in
// program order (with perfect branch prediction — fetch stalls only when a
// branch operand depends on an unperformed load), execute when their
// dataflow operands are ready, and retire in order up to four per cycle.
// Loads may perform speculatively deep in the ROB; under the weak-fence
// designs, post-fence loads may also *retire and complete* before the
// fence completes, entering the Bypass Set.
package cpu

import (
	"math"
	"sort"

	"asymfence/internal/cache"
	"asymfence/internal/check"
	"asymfence/internal/coherence"
	"asymfence/internal/faults"
	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/metrics"
	"asymfence/internal/noc"
	"asymfence/internal/stats"
	"asymfence/internal/trace"
)

// The paper's Table 2 core parameters that no experiment varies.
const (
	fetchWidth   = 4         // instructions fetched per cycle
	retireWidth  = 4         // instructions retired per cycle
	l1Bytes      = 32 * 1024 // private L1 size
	l1Assoc      = 4         // L1 associativity
	l1HitLatency = 2         // L1 round trip, cycles
	mshrs        = 8         // outstanding load misses
	retryBackoff = 10        // cycles before re-issuing a nacked write
)

// Config holds one core's microarchitectural parameters. Zero values are
// replaced by the paper's Table 2 defaults.
type Config struct {
	ID     int
	NCores int
	Design fence.Design

	ROBSize int // reorder buffer entries (default 140)
	WBSize  int // write buffer entries (default 64)

	BSCapacity int  // Bypass Set entries (default 32)
	BSBloom    bool // Bloom-filter front end on the BS

	// WPlusTimeout is the deadlock-suspicion timeout of the W+ design:
	// cycles of simultaneous bouncing/being-bounced before rollback.
	WPlusTimeout int64

	// Privacy classifies addresses as private or shared for WeeFence's
	// Private Access Filtering (see mem.Privacy). Nil means everything is
	// treated as shared.
	Privacy *mem.Privacy

	// Tracer receives this core's fence-lifecycle and write-buffer
	// events. Nil (the default) disables tracing at zero cost.
	Tracer *trace.Tracer

	// WBOcc, when non-nil, observes the write buffer's occupancy after
	// every store enters it (the machine.wb.occupancy histogram). Nil
	// (the default) disables the observation at zero cost.
	WBOcc *metrics.Histogram

	// Checker receives this core's retirement/commit stream for runtime
	// invariant verification. Nil (the default) disables checking at
	// zero cost.
	Checker *check.Oracle

	// Faults injects deterministic timing faults (write-buffer drain
	// stalls) into this core. Nil (the default) injects nothing.
	Faults *faults.Injector

	// NoIdleSleep disables the idle-cycle memoization fast path, forcing
	// a full pipeline evaluation every cycle. Results are identical
	// either way (the equivalence test in internal/sim asserts it); the
	// switch exists for that cross-check and for debugging.
	NoIdleSleep bool
}

// DefaultWPlusTimeout is the default W+ deadlock-suspicion timeout in
// cycles (Config.WPlusTimeout overrides it): long enough that ordinary
// transient bouncing (which resolves as soon as the remote fence
// completes, typically well under 100 cycles) rarely trips a rollback,
// short enough that a genuine deadlock is broken quickly. The machine
// watchdog must exceed it (sim.Config.Validate enforces this).
const DefaultWPlusTimeout = 150

func (c *Config) applyDefaults() {
	if c.ROBSize == 0 {
		c.ROBSize = 140
	}
	if c.WBSize == 0 {
		c.WBSize = 64
	}
	if c.BSCapacity == 0 {
		c.BSCapacity = fence.DefaultBSCapacity
	}
	if c.WPlusTimeout == 0 {
		c.WPlusTimeout = DefaultWPlusTimeout
	}
}

// operand is a captured instruction input: either a known value with its
// dataflow-ready time, or a reference to the producing ROB entry.
type operand struct {
	known bool
	val   uint32
	ready int64
	prod  *robEntry
}

// regVal is the fetch-side architectural register state, maintained in
// program order. When a register's latest writer is an unperformed load,
// prod points at it.
type regVal struct {
	known bool
	val   uint32
	ready int64
	prod  *robEntry
}

// robEntry is one in-flight instruction.
type robEntry struct {
	in  isa.Instr
	pc  int
	seq uint64

	s1, s2 operand

	// Value/timing resolution. resolved means the result value (if any)
	// and ready time are final.
	resolved bool
	val      uint32
	ready    int64

	// Memory state.
	addr      mem.Addr
	addrOK    bool
	addrReady int64
	issued    bool
	performed bool
	forwarded bool // value came from store-to-load forwarding

	// Store data (St, Xchg).
	dataOK    bool
	dataVal   uint32
	dataReady int64

	squashed bool

	// Branch prediction state: predicted is set when the branch was
	// fetched with unresolved operands; mispredict/actualTaken record the
	// verification outcome.
	predicted   bool
	predTaken   bool
	mispredict  bool
	actualTaken bool

	// slots is how many ROB entries this instruction occupies: 1, except
	// Work instructions, which stand for their cycle count's worth of
	// instructions (capped), so the reorder window runs ahead of a
	// blocked fence by a realistic amount.
	slots int

	// WeeFence handshake state (WFence entries under the Wee design).
	weeChecked bool
	weeDemoted bool

	// prevWork restores workUnitFree when a Work entry is squashed.
	prevWork int64
}

func (e *robEntry) line() mem.Line { return mem.LineOf(e.addr) }

// isStore reports whether the entry writes memory (St or Xchg): the
// entries sq holds.
func (e *robEntry) isStore() bool { return e.in.Op == isa.St || e.in.Op == isa.Xchg }

// activeFence is a retired-but-incomplete weak fence.
type activeFence struct {
	seq     uint64 // the fence instruction's sequence number
	pcAfter int    // resume point for W+ rollback
	// undoMark is the undo-log length at the fence (W+ checkpoint).
	undoMark int
	// Wee state.
	module   int        // module the PS (and BS) must confine to; -1 if not yet pinned
	remotePS []mem.Line // combined pending sets of other active fences
	wee      bool
	weeID    uint64 // GRT deposit id (the fence's deposit ReqID)
	// C-Fence state: a free Conditional Fence stays registered in the
	// centralized associate table until it completes.
	cf      bool
	cfGroup int32
	// demoted: a post-fence access homed outside the fence's module, so
	// the fence could not confine its PS and BS to one directory module
	// and turned into a conventional fence (paper §6): subsequent
	// post-fence loads stall until it completes.
	demoted bool
}

// wbEntry is a retired store waiting to merge with the memory system.
type wbEntry struct {
	addr mem.Addr
	val  uint32
	seq  uint64
}

type undoRec struct {
	seq  uint64
	reg  isa.Reg
	prev regVal
}

type statRec struct {
	seq uint64
	id  int32
}

// loadMiss tracks an outstanding GetS and the loads waiting on it.
type loadMiss struct {
	line    mem.Line
	reqID   uint64
	waiters []*robEntry
}

// Core is one simulated processor: pipeline front end, ROB, write buffer,
// private L1, Bypass Set and fence engines.
type Core struct {
	cfg   Config
	prog  *isa.Program
	mesh  *coherence.Fabric
	store *mem.Store
	st    *stats.Core
	tr    *trace.Tracer
	chk   *check.Oracle
	flt   *faults.Injector

	l1 *cache.Cache
	bs *fence.BypassSet

	// Fetch-side architectural state.
	pc       int
	regs     [isa.NumRegs]regVal
	fetchEnd bool // Halt fetched; stop fetching

	rob      []*robEntry // FIFO, index 0 = head; a window into robBuf
	robSlots int         // occupied ROB entries (Work counts its size)

	// The load and store queues beside the ROB, both in program order:
	// lq holds exactly the loads not yet issued and sq exactly the St and
	// Xchg entries still in the ROB. pushROB appends to them, retire pops
	// sq's head, squashFrom truncates both at the squash point and
	// recoverWPlus empties both, so load issue and store-to-load
	// forwarding never walk the whole ROB.
	lq []*robEntry
	sq []*robEntry // a window into sqBuf

	// robBuf and sqBuf, 2×ROBSize entries each, back the rob and sq
	// windows (see pushWindow).
	robBuf, sqBuf []*robEntry

	seq      uint64
	undoLog  []undoRec
	workFree int64 // execution-unit availability for Work instrs

	// statLog records Stat events retired while weak fences are active,
	// so a W+ rollback can un-count the ones it replays.
	statLog []statRec

	// mispredicted is the oldest branch found mispredicted this cycle;
	// the squash/redirect happens at the next step boundary.
	mispredicted *robEntry

	wb []wbEntry

	// In-flight store transaction (write-buffer head).
	wbReqID    uint64
	wbInFlight bool
	wbRetryAt  int64
	wbBounced  bool // current head store has been nacked at least once
	wbOrder    bool // current request carries the O bit
	wbStalled  bool // fault injection already drew for the current head

	// In-flight atomic (Xchg) transaction.
	atomReqID    uint64
	atomInFlight bool
	atomRetryAt  int64
	atomEntry    *robEntry

	loadMisses map[mem.Line]*loadMiss
	reqIDc     uint64

	fences []*activeFence // active (retired, incomplete) weak fences

	// Wee per-fence handshake state for the fence at the ROB head.
	weeDepositSent bool
	weeDepositAck  bool
	weeRemote      []mem.Line
	weeModule      int
	weeReqID       uint64

	// C-Fence handshake state for the fence at the ROB head.
	cfState   uint8 // 0 idle, 1 registering, 2 stalled, 3 free
	cfReqID   uint64
	cfSnap    []coherence.CFEntry
	cfCleared bool
	cfQueryIn bool
	cfQueryAt int64

	// W+ deadlock detection and recovery.
	bouncedExternal bool // our BS bounced someone since oldest fence began
	timeoutArmed    bool
	timeoutAt       int64
	draining        bool // post-rollback: wait for WB drain before resuming
	drainResumePC   int

	finished  bool
	haltEntry bool

	// Idle-cycle memoization (see PERFORMANCE.md). When a full Step ends
	// with nothing retired and no action taken, the core computes the
	// earliest future cycle at which a purely time-gated event can occur
	// and sleeps until then: Steps before wakeAt just re-charge the
	// recorded stall category in O(1). Message-driven events cannot be
	// predicted, so HandleMsg clears wakeAt; a spurious early wake is a
	// stats-identical no-op, so only *missed* time-gated events would be
	// bugs — computeWake enumerates them all conservatively.
	wakeAt    int64
	acted     bool     // something changed this Step; do not sleep
	stallKind stallCat // category charged for skipped cycles
	stallPC   int      // fence-site attribution for stallFence
	issueWake int64    // earliest future addr-ready of an unissued load

	// entryArena chunk-allocates ROB entries. Entries are never recycled:
	// captured operands and fetch-side register state hold *robEntry
	// references (operand.prod, regVal.prod) that can outlive retirement,
	// so reuse would corrupt dataflow. Chunking still removes ~all
	// per-instruction heap allocations.
	entryArena []robEntry
	entryUsed  int

	// lmPool recycles loadMiss records (safe, unlike ROB entries: the
	// only reference is the loadMisses map entry deleted at grant time).
	lmPool []*loadMiss
}

// stallCat is the memoized per-cycle stats category charged while the
// core sleeps; it mirrors the switch at the end of Step exactly.
type stallCat uint8

const (
	stallOther stallCat = iota // rMem/rExec/rEmpty: OtherStallCycles
	stallBusy                  // rWork: modeled compute, BusyCycles
	stallFence                 // rFence: FenceStallCycles + site profile
	stallDrain                 // post-rollback drain: FenceStallCycles
)

// New builds a core executing prog on the given machine fabric.
func New(cfg Config, prog *isa.Program, mesh *coherence.Fabric, store *mem.Store) *Core {
	cfg.applyDefaults()
	c := &Core{
		cfg:        cfg,
		prog:       prog,
		mesh:       mesh,
		store:      store,
		st:         stats.NewCore(),
		tr:         cfg.Tracer,
		chk:        cfg.Checker,
		flt:        cfg.Faults,
		l1:         cache.New(l1Bytes, l1Assoc),
		bs:         fence.NewBypassSet(cfg.BSCapacity, cfg.BSBloom),
		robBuf:     make([]*robEntry, 2*cfg.ROBSize),
		sqBuf:      make([]*robEntry, 2*cfg.ROBSize),
		loadMisses: make(map[mem.Line]*loadMiss),
		issueWake:  math.MaxInt64,
	}
	// Architectural registers start as known zeros.
	for i := range c.regs {
		c.regs[i].known = true
	}
	return c
}

// Stats returns the core's measurement block.
func (c *Core) Stats() *stats.Core { return c.st }

// Finished reports whether the thread has halted (program complete, write
// buffer drained, all fences complete).
func (c *Core) Finished() bool { return c.finished }

// BypassSet exposes the core's BS (test hook).
func (c *Core) BypassSet() *fence.BypassSet { return c.bs }

// WBDepth returns the current write-buffer occupancy (deadlock
// diagnostics and the invariant oracle's machine view).
func (c *Core) WBDepth() int { return len(c.wb) }

// L1Holds reports whether this core's private L1 currently holds line l,
// and whether it holds it exclusively (Modified or Exclusive). It is the
// invariant oracle's read-only view; Peek does not disturb LRU state.
func (c *Core) L1Holds(l mem.Line) (held, exclusive bool) {
	st, ok := c.l1.Peek(l)
	if !ok {
		return false, false
	}
	return true, st == cache.Modified || st == cache.Exclusive
}

// Reg returns the architectural value of a register once the core has
// finished (test hook). It panics if the register's value is still
// unresolved.
func (c *Core) Reg(r isa.Reg) uint32 {
	rv := c.regs[r]
	if rv.prod != nil {
		if !rv.prod.resolved {
			panic("cpu: register value unresolved")
		}
		return rv.prod.val
	}
	return rv.val
}

func (c *Core) nextReqID() uint64 {
	c.reqIDc++
	// Make request ids globally unique across cores for debuggability.
	return uint64(c.cfg.ID)<<48 | c.reqIDc
}

func (c *Core) home(l mem.Line) int { return mem.HomeBank(l, c.cfg.NCores) }

func (c *Core) send(now int64, dst int, m coherence.Msg, cat noc.Category) {
	// Sending is an action: a core that communicated this cycle may have
	// follow-up work next cycle, so it must not go to sleep on stale
	// state (single chokepoint for every outbound-message site).
	c.acted = true
	if m.Retry {
		cat = noc.CatRetry
	}
	c.mesh.Send(now, coherence.Packet{Src: c.cfg.ID, Dst: dst, Size: m.Size(), Cat: cat, Payload: m})
}

// newEntry allocates a ROB entry from the append-only arena; the slot is
// always fresh (zeroed) because entries are never reused.
func (c *Core) newEntry() *robEntry {
	if c.entryUsed == len(c.entryArena) {
		c.entryArena = make([]robEntry, 512)
		c.entryUsed = 0
	}
	e := &c.entryArena[c.entryUsed]
	c.entryUsed++
	return e
}

// pushWindow appends e to w, a FIFO window into buf (2×ROBSize entries)
// whose head is popped by reslicing. A window that has reached the end
// of buf first slides back to its start; a window holds at most ROBSize
// entries, so the slide never overlaps it, costs O(1) per push
// amortized, and a push never allocates.
func pushWindow(w, buf []*robEntry, e *robEntry) []*robEntry {
	if len(w) == cap(w) {
		w = append(buf[:0], w...)
	}
	return append(w, e)
}

// seqIndex returns the index of the first entry of q whose seq is at
// least seq, or len(q). Seq numbers increase along the ROB and along lq
// and sq, so a binary search finds it.
func seqIndex(q []*robEntry, seq uint64) int {
	return sort.Search(len(q), func(i int) bool { return q[i].seq >= seq })
}

// robIndex returns e's index in the ROB, or -1 if it is not there.
func (c *Core) robIndex(e *robEntry) int {
	if i := seqIndex(c.rob, e.seq); i < len(c.rob) && c.rob[i] == e {
		return i
	}
	return -1
}

// newLoadMiss takes a record from the pool or allocates one.
func (c *Core) newLoadMiss() *loadMiss {
	if n := len(c.lmPool); n > 0 {
		lm := c.lmPool[n-1]
		c.lmPool = c.lmPool[:n-1]
		return lm
	}
	return &loadMiss{}
}

// readReg captures the current fetch-side state of register r as an
// operand, materializing producer results that have resolved since the
// register was written.
func (c *Core) readReg(r isa.Reg) operand {
	if r == isa.R0 {
		return operand{known: true}
	}
	rv := &c.regs[r]
	if rv.prod != nil && rv.prod.resolved {
		rv.known = true
		rv.val = rv.prod.val
		rv.ready = rv.prod.ready
		rv.prod = nil
	}
	return operand{known: rv.known, val: rv.val, ready: rv.ready, prod: rv.prod}
}

// writeReg records a fetch-side register write, logging the previous state
// for squash/rollback undo.
func (c *Core) writeReg(e *robEntry, r isa.Reg, nv regVal) {
	if r == isa.R0 {
		return
	}
	prev := c.regs[r]
	c.undoLog = append(c.undoLog, undoRec{seq: e.seq, reg: r, prev: prev})
	c.regs[r] = nv
}

// materialize refreshes an operand whose producer has since resolved.
func (o *operand) materialize() {
	if o.prod != nil && o.prod.resolved {
		o.known = true
		o.val = o.prod.val
		o.ready = o.prod.ready
		o.prod = nil
	}
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
