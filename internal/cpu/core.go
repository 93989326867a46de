// Package cpu models the out-of-order cores of the simulated multicore
// (Table 2: 4-issue, 140-entry ROB, 64-entry write buffer, TSO) together
// with the requester/sharer side of the coherence protocol and the five
// fence designs of the paper (S+, WS+, SW+, W+, Wee).
//
// Execution is functional+timing combined: instructions are fetched in
// program order (a branch whose operands are known is evaluated at
// fetch; any other is predicted backward-taken/forward-not-taken and
// fetch goes on down the predicted path, the wrong path squashed once
// the operands resolve), execute when their dataflow operands are
// ready, and retire in order up to four per cycle.
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
	robEntries   = 140       // reorder buffer entries
	wbEntries    = 64        // write buffer entries
)

// undoPrune is the undo-log length at which pruneUndoLog drops the
// records no squash or rollback can read.
const undoPrune = 256

// Config holds one core's microarchitectural parameters. Zero values are
// replaced by the paper's Table 2 defaults.
type Config struct {
	ID     int
	NCores int
	Design fence.Design

	BSCapacity int // Bypass Set entries (default 32)

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
	if c.BSCapacity == 0 {
		c.BSCapacity = fence.DefaultBSCapacity
	}
	if c.WPlusTimeout == 0 {
		c.WPlusTimeout = DefaultWPlusTimeout
	}
}

// regVal is a value with its dataflow-ready time, or, while the value's
// producer is unresolved, a reference to the producing ROB entry. It is
// the fetch-side architectural register state (maintained in program
// order), what an undo record saves, and the core of a captured operand.
// A producer reference is non-nil only while its producer is unresolved
// and in the ROB: resolving an entry writes its value into every holder
// (see wakeDependents).
type regVal struct {
	known bool
	val   uint32
	ready int64
	prod  *robEntry
}

// operand is a captured instruction input. While it waits on a producer
// it is linked into the producer's wakeup list: holder is the entry the
// operand belongs to and next the operand after it on the list.
type operand struct {
	regVal
	holder *robEntry
	next   *operand
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

	// waiters heads this entry's wakeup list: the operands of younger
	// entries that wait on its result, youngest holder first, so a squash
	// unlinks a prefix.
	waiters *operand
	// undoPos is the absolute undo-log position of the record that last
	// saved this entry as its register's previous writer.
	undoPos int

	// Branch prediction state: predicted is set when the branch was
	// fetched with unresolved operands; actualTaken records the
	// verification outcome of a mispredicted one.
	predicted   bool
	predTaken   bool
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
	// Wee state.
	module   int        // module the PS (and BS) must confine to; -1 if not yet pinned
	remotePS []mem.Line // combined pending sets of other active fences
	wee      bool
	weeID    uint64 // GRT deposit id (the fence's deposit ReqID)
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

// loadMiss is one MSHR: while busy, an outstanding GetS and the loads
// waiting on it. A core's mshrs records are a fixed array searched
// linearly, and each keeps its waiters' array across requests.
type loadMiss struct {
	busy    bool
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

	// robCap is the most entries the ROB can ever hold (see robBound);
	// it sizes the pool and the windows below.
	robCap int

	// robBuf and sqBuf, 2×robCap entries each, back the rob and sq
	// windows (see pushWindow).
	robBuf, sqBuf []*robEntry

	seq      uint64
	undoLog  []undoRec
	undoBase int   // absolute undo-log position of undoLog[0]
	workFree int64 // execution-unit availability for Work instrs

	// statLog records Stat events retired while weak fences are active,
	// so a W+ rollback can un-count the ones it replays.
	statLog []statRec

	// mispredicted is the oldest branch found mispredicted this cycle;
	// the squash/redirect happens at the next step boundary. A squash
	// that removes it clears it.
	mispredicted *robEntry

	wb    []wbEntry // FIFO, index 0 = head; a window into wbBuf
	wbBuf []wbEntry // 2×wbCap entries (see New and pushWindow)

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

	loadMisses [mshrs]loadMiss
	reqIDc     uint64

	// fences holds the active (retired, incomplete) weak fences, oldest
	// first; completing the oldest shifts the rest down in place.
	fences []activeFence

	// Wee per-fence handshake state for the fence at the ROB head.
	weeDepositSent bool
	weeDepositAck  bool
	weeRemote      []mem.Line
	weeModule      int
	weeReqID       uint64

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
	// and sleeps until then: the machine does not step it before wakeAt,
	// and Sync charges the cycles in between to the recorded stall
	// category in O(1). Message-driven events cannot be predicted, so
	// HandleMsg clears wakeAt; a spurious early wake is a stats-identical
	// no-op, so only *missed* time-gated events would be bugs —
	// computeWake enumerates them all conservatively.
	wakeAt    int64
	synced    int64    // last cycle stepped or charged by Sync
	acted     bool     // something changed this Step; do not sleep
	stallKind stallCat // category of the last stepped cycle
	stallPC   int      // fence-site attribution for stallFence
	issueWake int64    // earliest future addr-ready of an unissued load

	// pool holds the core's ROB entries that are not in the ROB: retire
	// and squash return entries to it and newEntry takes them back. No
	// reference outlives an entry's stay in the ROB (see regVal), so
	// reuse cannot alias live dataflow state. The robCap entries are
	// allocated as one array on the core's first fetch.
	pool []*robEntry
}

// stallCat is the stats category of the cycle Step last stepped, which
// charge adds cycles to: that cycle's and those a sleeping core skips.
type stallCat uint8

const (
	stallOther stallCat = iota // rMem/rExec/rEmpty: OtherStallCycles
	stallBusy                  // retiring, halting or rWork: BusyCycles
	stallFence                 // rFence: FenceStallCycles + site profile
	stallDrain                 // post-rollback drain: FenceStallCycles
)

// New builds a core executing prog on the given machine fabric.
func New(cfg Config, prog *isa.Program, mesh *coherence.Fabric, store *mem.Store) *Core {
	cfg.applyDefaults()
	robCap, wbCap := robBound(prog, robEntries), wbEntries
	if robCap < robEntries {
		wbCap = min(wbCap, robCap) // a loop-free program buffers each store at most once
	}
	c := &Core{
		cfg:       cfg,
		prog:      prog,
		mesh:      mesh,
		store:     store,
		st:        stats.NewCore(),
		tr:        cfg.Tracer,
		chk:       cfg.Checker,
		flt:       cfg.Faults,
		l1:        cache.New(l1Bytes, l1Assoc),
		bs:        fence.NewBypassSet(cfg.BSCapacity),
		robCap:    robCap,
		robBuf:    make([]*robEntry, 2*robCap),
		sqBuf:     make([]*robEntry, 2*robCap),
		wbBuf:     make([]wbEntry, 2*wbCap),
		issueWake: math.MaxInt64,
	}
	// Architectural registers start as known zeros.
	for i := range c.regs {
		c.regs[i].known = true
	}
	return c
}

// robBound returns the most entries prog's ROB can ever hold:
// robSize, or prog's length when that is smaller and no branch targets
// its own or an earlier pc. Such a program is loop-free, and its ROB
// holds each instruction at most once: fetch moves forward except at a
// squash, a mispredict redirect or a W+ rollback, and each of those
// first removes every entry at or after the pc fetch resumes at. Its
// write buffer holds each store at most once too, because retirement
// also moves forward except at a rollback, which drops the stores that
// retired after the fence it resumes behind.
func robBound(prog *isa.Program, robSize int) int {
	n := len(prog.Instrs)
	if n >= robSize {
		return robSize
	}
	for pc, in := range prog.Instrs {
		if in.IsBranch() && in.Target <= pc {
			return robSize
		}
	}
	return n
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
	if c.regs[r].prod != nil {
		panic("cpu: register value unresolved")
	}
	return c.regs[r].val
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

// newEntry takes a zeroed ROB entry from the pool. The pool holds every
// entry not in the ROB, and fetch takes one only while the ROB holds
// fewer than robCap: it has a free slot, and a loop-free program's ROB
// never holds the instruction being fetched (see robBound). So the pool
// is never empty here.
func (c *Core) newEntry() *robEntry {
	if c.pool == nil {
		entries := make([]robEntry, c.robCap)
		c.pool = make([]*robEntry, len(entries))
		for i := range entries {
			c.pool[i] = &entries[i]
		}
	}
	n := len(c.pool) - 1
	e := c.pool[n]
	c.pool = c.pool[:n]
	*e = robEntry{}
	return e
}

// pushWindow appends x to w, a FIFO window into buf whose head is popped
// by reslicing. buf holds twice as many elements as the window ever
// does (2×robCap for the ROB and sq, 2×wbCap for the write buffer). A
// window that has reached the end of buf first slides back to its
// start; it is at most half of buf long, so the slide never overlaps it,
// costs O(1) per push amortized, and a push never allocates.
func pushWindow[T any](w, buf []T, x T) []T {
	if len(w) == cap(w) {
		w = append(buf[:0], w...)
	}
	return append(w, x)
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

// readReg captures the current fetch-side state of register r as an
// operand.
func (c *Core) readReg(r isa.Reg) operand {
	if r == isa.R0 {
		return operand{regVal: regVal{known: true}}
	}
	return operand{regVal: c.regs[r]}
}

// writeReg records a fetch-side register write, logging the previous state
// for squash/rollback undo. A previous writer still unresolved learns
// where its record is, so that resolving it updates the record too.
func (c *Core) writeReg(e *robEntry, r isa.Reg, nv regVal) {
	if r == isa.R0 {
		return
	}
	prev := c.regs[r]
	if prev.prod != nil {
		prev.prod.undoPos = c.undoBase + len(c.undoLog)
	}
	c.undoLog = append(c.undoLog, undoRec{seq: e.seq, reg: r, prev: prev})
	c.regs[r] = nv
}

// wakeDependents hands resolved entry e's result to every holder of a
// reference to it: the fetch-side register while e is its latest writer,
// the one undo record that saved e as its register's previous writer,
// and the operands on e's wakeup list, whose entries are re-resolved in
// turn, so an ALU result this resolves wakes its own dependents with the
// same now. Afterwards nothing refers to e as a producer.
func (c *Core) wakeDependents(now int64, e *robEntry) {
	v := regVal{known: true, val: e.val, ready: e.ready}
	if rv := &c.regs[e.in.Dst]; rv.prod == e {
		*rv = v
	}
	if i := e.undoPos - c.undoBase; i >= 0 && i < len(c.undoLog) && c.undoLog[i].prev.prod == e {
		c.undoLog[i].prev = v
	}
	o := e.waiters
	e.waiters = nil
	for ; o != nil; o = o.next {
		o.regVal = v
		c.operandReady(now, o.holder)
	}
}

// unlinkSquashed removes from producer p's wakeup list the operands of
// entries at or after seq cut, which a squash is removing. They are the
// youngest holders, so they form a prefix of the list. A producer that is
// itself squashed is left alone: its list dies with it.
func unlinkSquashed(p *robEntry, cut uint64) {
	if p == nil || p.seq >= cut {
		return
	}
	for p.waiters != nil && p.waiters.holder.seq >= cut {
		p.waiters = p.waiters.next
	}
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
