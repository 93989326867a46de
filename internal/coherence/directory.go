package coherence

import (
	"fmt"
	"sort"
	"strings"

	"asymfence/internal/cache"
	"asymfence/internal/check"
	"asymfence/internal/mem"
	"asymfence/internal/noc"
	"asymfence/internal/stats"
	"asymfence/internal/trace"
)

// Fabric is the interconnect carrying coherence messages. The mesh is
// generic over its payload so protocol messages travel unboxed; every
// component of one machine shares a single Fabric instance.
type Fabric = noc.Mesh[Msg]

// Packet is a coherence message in flight on the Fabric.
type Packet = noc.Packet[Msg]

// Default storage latencies (Table 2): the local L2 bank round trip and
// the off-chip memory round trip. Mesh hop latency is added on top by the
// NoC model.
const (
	DefaultL2Latency  = 11
	DefaultMemLatency = 200
)

// ToDirectory reports whether a message type is addressed to the home
// directory module (as opposed to a core's cache controller). Cores and
// their co-located L2 bank/directory share a mesh node, so delivery is
// demultiplexed by message type.
func ToDirectory(t MsgType) bool {
	switch t {
	case GetS, GetM, PutM, InvAck, InvNack, InvAckKeep, DowngradeAck,
		WeeDeposit, WeeRemove:
		return true
	}
	return false
}

type txnKind uint8

const (
	txnGetS txnKind = iota
	txnGetM
)

type txn struct {
	kind        txnKind
	req         int
	reqID       uint64
	line        mem.Line
	order       bool
	wordMask    uint8
	pendingAcks int
	nacked      bool   // at least one plain InvNack (write bounced)
	trueShare   bool   // at least one true-sharing InvAckKeep (CO fails)
	keepSharers uint64 // responders the directory must keep as sharers
}

// dirLine is one line's directory entry. Its open transaction lives in
// it: busy says whether txn holds one, and txn is overwritten only by the
// next transaction started after finish clears busy, so a controller
// needs no heap object per request (gem5's Ruby keeps its TBEs in a fixed
// table for the same reason).
type dirLine struct {
	sharers uint64 // bitmask of cores the directory will invalidate on writes
	owner   int    // core holding the line E/M; -1 if none
	busy    bool
	txn     txn
	queue   []Msg // requests deferred while the line is busy
}

// Slab chunks: a bank's first chunk holds slabFirst lines and each later
// one as many as the bank holds already, up to slabMax, so a small
// machine's banks allocate a few hundred bytes and a big one's one chunk
// per slabMax new lines.
const (
	slabFirst = 4
	slabMax   = 256
)

// timerKind names the deferred action a timer fires. Timers used to be
// closures, but a closure costs two heap allocations (func value +
// captured variables) on the GetS/GetM fast path; a tagged struct with
// the two possible payloads costs none.
type timerKind uint8

const (
	// tGetSData: the storage latency of a GetS served by this bank has
	// elapsed; grant E or S based on the line's state at fire time.
	tGetSData timerKind = iota
	// tGetMData: the storage (or local) latency of a GetM that needed no
	// remote invalidations has elapsed; complete the transaction.
	tGetMData
)

type timer struct {
	kind timerKind
	dl   *dirLine // tGetMData: completes dl.txn
	msg  Msg      // tGetSData: the original request
}

// DirStats counts directory-side protocol events.
type DirStats struct {
	GetSReqs, GetMReqs, Writebacks uint64
	BouncedWrites                  uint64 // plain GetM transactions nacked off a Bypass Set
	OrderOps                       uint64 // completed Order transactions
	CondOrderFails, CondOrderOks   uint64 // Conditional Order outcomes
	MemFetches, L2Hits             uint64
	GRTDeposits, GRTRemovals       uint64
}

// Counters returns d's counters in declaration order, each with its
// digest name. Add, the simulator's result digest and the measurement
// store's record all walk this one list.
func (d *DirStats) Counters() [11]stats.Counter {
	return [...]stats.Counter{
		{Name: "gets", Val: &d.GetSReqs}, {Name: "getm", Val: &d.GetMReqs},
		{Name: "wb", Val: &d.Writebacks}, {Name: "bounced", Val: &d.BouncedWrites},
		{Name: "order", Val: &d.OrderOps},
		{Name: "cof", Val: &d.CondOrderFails}, {Name: "coo", Val: &d.CondOrderOks},
		{Name: "mem", Val: &d.MemFetches}, {Name: "l2", Val: &d.L2Hits},
		{Name: "grtd", Val: &d.GRTDeposits}, {Name: "grtr", Val: &d.GRTRemovals},
	}
}

// Add merges o into d (used to sum a machine's banks).
func (d *DirStats) Add(o *DirStats) {
	dst, src := d.Counters(), o.Counters()
	for i := range dst {
		*dst[i].Val += *src[i].Val
	}
}

// GRT is the Global Reorder Table: the per-core pending sets of the
// currently-executing WeeFences. Physically it is distributed across the
// directory modules; we model its *idealized* semantics — a deposit
// returns a consistent union of the other cores' pending sets. The paper's
// point is that building this consistent view out of distributed state is
// the hard, unsolved part (§2.3); WeeFence sidesteps it by demoting any
// fence whose pending set spans more than one module to a conventional
// fence, which the requester side implements (see cpu.retireWeeFence).
type GRT struct {
	ps  [64][]mem.Line
	ids [64]uint64
}

// NewGRT returns an empty table.
func NewGRT() *GRT { return &GRT{} }

// Deposit registers core's pending set under the fence's id and returns
// the union of every other core's registered pending set (the depositor's
// Remote PS).
func (g *GRT) Deposit(core int, id uint64, ps []mem.Line) []mem.Line {
	g.ps[core] = append(g.ps[core][:0], ps...)
	g.ids[core] = id
	var remote []mem.Line
	for c := range g.ps {
		if c != core {
			remote = append(remote, g.ps[c]...)
		}
	}
	return remote
}

// Remove clears core's entry, but only if it still belongs to the given
// fence: a completion message from an older fence must not clobber a
// younger fence's deposit that overtook it.
func (g *GRT) Remove(core int, id uint64) {
	if g.ids[core] == id {
		g.ps[core] = g.ps[core][:0]
	}
}

// Entry returns core's registered pending set (test hook).
func (g *GRT) Entry(core int) []mem.Line { return g.ps[core] }

// Directory is one home module: the directory slice plus the co-located
// shared-L2 bank, the memory access path, and (for WeeFence) access to the
// Global Reorder Table.
type Directory struct {
	bank   int
	nbanks int
	mesh   *Fabric
	l2     *cache.Cache
	grt    *GRT

	l2Lat, memLat int64

	lines  map[mem.Line]*dirLine
	slab   []dirLine // unused entries of the newest slab chunk
	timers noc.Queue[timer]

	tr  *trace.Tracer
	chk *check.Oracle
	// latFault, when non-nil, returns extra occupancy cycles for one
	// storage access at this bank (deterministic fault injection).
	latFault func(bank int) int64

	Stats DirStats
}

// NewDirectory builds the home module for the given bank node.
// l2BytesPerBank is the bank's L2 capacity (Table 2: 128 KB, 8-way).
// All modules of one machine share the same GRT instance.
func NewDirectory(bank, nbanks int, mesh *Fabric, l2BytesPerBank int, grt *GRT) *Directory {
	return &Directory{
		bank:   bank,
		nbanks: nbanks,
		mesh:   mesh,
		l2:     cache.New(l2BytesPerBank, 8),
		grt:    grt,
		l2Lat:  DefaultL2Latency,
		memLat: DefaultMemLatency,
		lines:  make(map[mem.Line]*dirLine),
	}
}

// SetTracer attaches the machine's event tracer (nil disables).
func (d *Directory) SetTracer(t *trace.Tracer) { d.tr = t }

// SetChecker attaches the machine's invariant oracle (nil disables).
// The directory marks every line whose sharer/owner state it mutates so
// the oracle's end-of-cycle coherence sweep only visits touched lines.
func (d *Directory) SetChecker(o *check.Oracle) { d.chk = o }

// SetLatencyFault attaches a fault-injection hook stretching this bank's
// storage occupancy (nil disables).
func (d *Directory) SetLatencyFault(f func(bank int) int64) { d.latFault = f }

func (d *Directory) entry(l mem.Line) *dirLine {
	dl, ok := d.lines[l]
	if !ok {
		if len(d.slab) == 0 {
			// Each chunk is as large as all earlier ones together.
			d.slab = make([]dirLine, min(max(len(d.lines), slabFirst), slabMax))
		}
		dl = &d.slab[0]
		d.slab = d.slab[1:]
		dl.owner = -1
		d.lines[l] = dl
	}
	return dl
}

func (d *Directory) send(now int64, dst int, m Msg, cat noc.Category) {
	if m.Retry {
		cat = noc.CatRetry
	}
	d.mesh.Send(now, Packet{Src: d.bank, Dst: dst, Size: m.Size(), Cat: cat, Payload: m})
}

// Step fires any due internal timers (storage latencies etc).
func (d *Directory) Step(now int64) {
	for d.timers.Next() <= now {
		t := d.timers.Pop()
		switch t.kind {
		case tGetSData:
			d.fireGetSData(now, t.dl, t.msg)
		case tGetMData:
			d.completeGetM(now, t.dl)
		}
	}
}

// NextTimer returns the cycle of the earliest pending timer, or
// math.MaxInt64 when none is armed (quiescence-aware stepping bound).
func (d *Directory) NextTimer() int64 { return d.timers.Next() }

// Pending reports whether the module has in-flight work: an armed timer,
// an open transaction or a queued request. Deadlock reports call it to
// choose which modules to dump; it walks every line the bank has seen.
func (d *Directory) Pending() bool {
	if d.timers.Len() > 0 {
		return true
	}
	for _, dl := range d.lines {
		if dl.busy || len(dl.queue) > 0 {
			return true
		}
	}
	return false
}

// Handle processes one incoming message.
func (d *Directory) Handle(now int64, m Msg) {
	switch m.Type {
	case WeeRemove, WeeDeposit:
		// Fence-management messages are not line-homed.
	default:
		if mem.HomeBank(m.Line, d.nbanks) != d.bank {
			panic(fmt.Sprintf("coherence: line %#x routed to wrong bank %d", uint32(m.Line), d.bank))
		}
	}

	switch m.Type {
	case GetS, GetM:
		d.handleRequest(now, m)
	case PutM:
		d.handlePutM(now, m)
	case InvAck, InvNack, InvAckKeep:
		d.handleInvResp(now, m)
	case DowngradeAck:
		d.handleDowngradeAck(now, m)
	case WeeDeposit:
		d.handleWeeDeposit(now, m)
	case WeeRemove:
		d.Stats.GRTRemovals++
		d.tr.Emit(now, trace.KGRTRemove, int32(d.bank), 0, int64(m.Core), 0, 0)
		d.grt.Remove(m.Core, m.ReqID)
	default:
		panic("coherence: directory got " + m.Type.String())
	}
}

func (d *Directory) handleRequest(now int64, m Msg) {
	dl := d.entry(m.Line)
	if dl.busy {
		dl.queue = append(dl.queue, m)
		return
	}
	switch m.Type {
	case GetS:
		d.startGetS(now, dl, m)
	case GetM:
		d.startGetM(now, dl, m)
	}
}

// l2Line converts a global line to its bank-local index for L2 set
// indexing. Lines are interleaved across banks by their low index bits, so
// indexing the bank's sets with the global line number would leave
// 1/nbanks of each bank's sets usable; dividing out the interleaving
// spreads a bank's resident lines over all its sets.
func (d *Directory) l2Line(l mem.Line) mem.Line {
	idx := uint32(l) / mem.LineSize
	return mem.Line((idx / uint32(d.nbanks)) * mem.LineSize)
}

// storageLatency models where the data comes from when no core must be
// consulted: the local L2 bank or off-chip memory. A memory fetch installs
// the line in the bank (L2 victims are silently absorbed by memory — they
// carry no directory state).
func (d *Directory) storageLatency(l mem.Line) int64 {
	var lat int64
	if _, hit := d.l2.Lookup(d.l2Line(l)); hit {
		d.Stats.L2Hits++
		lat = d.l2Lat
	} else {
		d.Stats.MemFetches++
		d.l2.Install(d.l2Line(l), cache.Shared)
		lat = d.memLat + d.l2Lat
	}
	if d.latFault != nil {
		lat += d.latFault(d.bank)
	}
	return lat
}

func (d *Directory) startGetS(now int64, dl *dirLine, m Msg) {
	d.Stats.GetSReqs++
	d.tr.Emit(now, trace.KDirGetS, int32(d.bank), uint64(m.Line), int64(m.Core), int64(m.ReqID), 0)
	dl.busy = true
	dl.txn = txn{kind: txnGetS, req: m.Core, reqID: m.ReqID, line: m.Line}
	if dl.owner >= 0 && dl.owner != m.Core {
		dl.txn.pendingAcks = 1
		d.send(now, dl.owner, Msg{Type: DowngradeReq, Line: m.Line, Core: m.Core, ReqID: m.ReqID}, noc.CatProtocol)
		return
	}
	// Data comes from this bank (or memory). Exclusive grant when nobody
	// else has the line.
	lat := d.storageLatency(m.Line)
	d.timers.Push(now+lat, timer{kind: tGetSData, dl: dl, msg: m})
}

// fireGetSData completes a GetS whose data came from this bank (or
// memory): the storage latency has elapsed, so grant E or S based on the
// line's state now.
func (d *Directory) fireGetSData(now int64, dl *dirLine, m Msg) {
	if dl.sharers == 0 && dl.owner < 0 {
		dl.owner = m.Core
		d.tr.Emit(now, trace.KDirGrant, int32(d.bank), uint64(m.Line), int64(m.Core), int64(GrantE), 0)
		d.send(now, m.Core, Msg{Type: GrantE, Line: m.Line, Core: m.Core, ReqID: m.ReqID}, noc.CatProtocol)
	} else {
		dl.sharers |= 1 << uint(m.Core)
		d.tr.Emit(now, trace.KDirGrant, int32(d.bank), uint64(m.Line), int64(m.Core), int64(GrantS), 0)
		d.send(now, m.Core, Msg{Type: GrantS, Line: m.Line, Core: m.Core, ReqID: m.ReqID}, noc.CatProtocol)
	}
	if d.chk != nil {
		d.chk.MarkLine(m.Line)
	}
	d.finish(now, dl)
}

func (d *Directory) startGetM(now int64, dl *dirLine, m Msg) {
	d.Stats.GetMReqs++
	var order int64
	if m.Order {
		order = 1
	}
	d.tr.Emit(now, trace.KDirGetM, int32(d.bank), uint64(m.Line), int64(m.Core), int64(m.ReqID), order)
	dl.busy = true
	dl.txn = txn{
		kind: txnGetM, req: m.Core, reqID: m.ReqID, line: m.Line,
		order: m.Order, wordMask: m.WordMask,
	}
	t := &dl.txn
	inv := Msg{Type: InvReq, Line: m.Line, Core: m.Core, ReqID: m.ReqID, Order: m.Order, WordMask: m.WordMask}

	switch {
	case dl.owner == m.Core:
		// Defensive: requester already owns the line (e.g. a retry racing
		// a silent upgrade). Grant immediately.
		d.tr.Emit(now, trace.KDirGrant, int32(d.bank), uint64(m.Line), int64(m.Core), int64(GrantM), 0)
		d.send(now, m.Core, Msg{Type: GrantM, Line: m.Line, Core: m.Core, ReqID: m.ReqID}, noc.CatProtocol)
		d.finish(now, dl)
	case dl.owner >= 0:
		t.pendingAcks = 1
		d.send(now, dl.owner, inv, noc.CatProtocol)
	case dl.sharers&^(1<<uint(m.Core)) != 0:
		others := dl.sharers &^ (1 << uint(m.Core))
		for c := 0; others != 0; c++ {
			if others&(1<<uint(c)) != 0 {
				others &^= 1 << uint(c)
				t.pendingAcks++
				d.send(now, c, inv, noc.CatProtocol)
			}
		}
	default:
		// Requester is the only sharer, or nobody has it: fetch data if
		// the requester doesn't already hold it, then grant M.
		var lat int64 = 1
		if dl.sharers&(1<<uint(m.Core)) == 0 {
			lat = d.storageLatency(m.Line)
		}
		d.timers.Push(now+lat, timer{kind: tGetMData, dl: dl})
	}
}

func (d *Directory) handleInvResp(now int64, m Msg) {
	dl := d.entry(m.Line)
	t := &dl.txn
	if !dl.busy || t.reqID != m.ReqID {
		// Stale response from an older transaction; drop.
		return
	}
	switch m.Type {
	case InvAck:
		dl.sharers &^= 1 << uint(m.Core)
		if dl.owner == m.Core {
			dl.owner = -1
			if m.Dirty {
				d.l2.Install(d.l2Line(m.Line), cache.Shared)
			}
		}
	case InvNack:
		// Bounced off a Bypass Set: the sharer keeps its copy and its
		// directory entry.
		t.nacked = true
	case InvAckKeep:
		// O-bit invalidation: copy invalidated, but keep as sharer so its
		// Bypass Set keeps seeing writes to the line.
		if dl.owner == m.Core {
			dl.owner = -1
			if m.Dirty {
				d.l2.Install(d.l2Line(m.Line), cache.Shared)
			}
			// The former owner becomes a (non-holding) sharer.
			dl.sharers |= 1 << uint(m.Core)
		}
		t.keepSharers |= 1 << uint(m.Core)
		if m.TrueShare {
			t.trueShare = true
		}
	}
	t.pendingAcks--
	if d.chk != nil {
		d.chk.MarkLine(m.Line)
	}
	if t.pendingAcks == 0 {
		d.completeGetM(now, dl)
	}
}

// completeGetM ends the GetM transaction open in dl.
func (d *Directory) completeGetM(now int64, dl *dirLine) {
	t := &dl.txn
	req := t.req
	switch {
	case t.nacked:
		// The write transaction bounced (paper Fig. 2b / §3.2). Sharers
		// that acked are already removed; bouncers remain. The requester
		// must retry.
		d.Stats.BouncedWrites++
		d.tr.Emit(now, trace.KDirNack, int32(d.bank), uint64(t.line), int64(req), 0, 0)
		d.send(now, req, Msg{Type: NackRetry, Line: t.line, Core: req, ReqID: t.reqID}, noc.CatProtocol)
	case t.order && t.wordMask != 0 && t.trueShare:
		// Conditional Order with at least one true-sharer: the CO fails
		// and bounces back; the update is discarded; BS matchers stay
		// sharers (paper §3.3.2).
		d.Stats.CondOrderFails++
		dl.sharers |= t.keepSharers
		d.tr.Emit(now, trace.KDirNack, int32(d.bank), uint64(t.line), int64(req), 0, 1)
		d.send(now, req, Msg{Type: NackRetry, Line: t.line, Core: req, ReqID: t.reqID}, noc.CatProtocol)
	case t.order:
		// Order operation (or CO with only false sharers): the update
		// merges, BS matchers remain sharers, and the requester ends up
		// with the line in Shared state (paper §3.3.1).
		if t.wordMask != 0 {
			d.Stats.CondOrderOks++
		}
		d.Stats.OrderOps++
		dl.sharers |= t.keepSharers
		dl.sharers |= 1 << uint(req)
		dl.owner = -1
		d.l2.Install(d.l2Line(t.line), cache.Shared)
		d.tr.Emit(now, trace.KDirGrant, int32(d.bank), uint64(t.line), int64(req), int64(GrantOrder), 0)
		d.send(now, req, Msg{Type: GrantOrder, Line: t.line, Core: req, ReqID: t.reqID}, noc.CatProtocol)
	default:
		dl.sharers = 0
		dl.owner = req
		d.tr.Emit(now, trace.KDirGrant, int32(d.bank), uint64(t.line), int64(req), int64(GrantM), 0)
		d.send(now, req, Msg{Type: GrantM, Line: t.line, Core: req, ReqID: t.reqID}, noc.CatProtocol)
	}
	if d.chk != nil {
		d.chk.MarkLine(t.line)
	}
	d.finish(now, dl)
}

func (d *Directory) handleDowngradeAck(now int64, m Msg) {
	dl := d.entry(m.Line)
	t := &dl.txn
	if !dl.busy || t.reqID != m.ReqID {
		return
	}
	// Owner downgraded to Shared; its data (if dirty) is home now.
	if m.Dirty {
		d.l2.Install(d.l2Line(m.Line), cache.Shared)
	}
	old := dl.owner
	dl.owner = -1
	if old >= 0 {
		dl.sharers |= 1 << uint(old)
	}
	dl.sharers |= 1 << uint(t.req)
	d.tr.Emit(now, trace.KDirGrant, int32(d.bank), uint64(m.Line), int64(t.req), int64(GrantS), 0)
	d.send(now, t.req, Msg{Type: GrantS, Line: m.Line, Core: t.req, ReqID: t.reqID}, noc.CatProtocol)
	if d.chk != nil {
		d.chk.MarkLine(m.Line)
	}
	d.finish(now, dl)
}

func (d *Directory) handlePutM(now int64, m Msg) {
	dl := d.entry(m.Line)
	if dl.busy {
		dl.queue = append(dl.queue, m)
		return
	}
	d.Stats.Writebacks++
	var keep int64
	if m.KeepSharer {
		keep = 1
	}
	d.tr.Emit(now, trace.KDirWriteback, int32(d.bank), uint64(m.Line), int64(m.Core), keep, 0)
	if dl.owner == m.Core {
		dl.owner = -1
		d.l2.Install(d.l2Line(m.Line), cache.Shared)
	}
	// Keep-as-sharer writeback (paper §5.1): a dirty line whose address is
	// in the evictor's Bypass Set is written back, but the evictor remains
	// a sharer so it keeps seeing (and can keep bouncing) writes to it.
	if m.KeepSharer {
		dl.sharers |= 1 << uint(m.Core)
	}
	if d.chk != nil {
		d.chk.MarkLine(m.Line)
	}
}

func (d *Directory) handleWeeDeposit(now int64, m Msg) {
	d.Stats.GRTDeposits++
	d.tr.Emit(now, trace.KGRTDeposit, int32(d.bank), 0, int64(m.Core), int64(len(m.PS)), 0)
	remote := d.grt.Deposit(m.Core, m.ReqID, m.PS)
	d.send(now, m.Core, Msg{Type: WeeDepositAck, Core: m.Core, ReqID: m.ReqID, PS: remote}, noc.CatFence)
}

// finish retires the busy transaction and admits the next queued request
// for the line, which may reuse dl.txn at once: nothing reads the old
// transaction after its finish. The queue shifts in place so its array is
// reused by later deferrals.
func (d *Directory) finish(now int64, dl *dirLine) {
	dl.busy = false
	if len(dl.queue) == 0 {
		return
	}
	next := dl.queue[0]
	dl.queue = dl.queue[:copy(dl.queue, dl.queue[1:])]
	switch next.Type {
	case GetS:
		d.startGetS(now, dl, next)
	case GetM:
		d.startGetM(now, dl, next)
	case PutM:
		d.handlePutM(now, next)
		// PutM completes immediately; keep draining the queue.
		d.finish(now, dl)
	}
}

// Preload installs a line in this bank's L2 before simulation starts,
// modeling data that is warm mid-run (workload working sets that a real
// execution would have touched long before the measured region).
func (d *Directory) Preload(l mem.Line) {
	d.l2.Install(d.l2Line(l), cache.Shared)
}

// SharersOf returns the current sharer bitmask and owner of a line
// (test/debug hook).
func (d *Directory) SharersOf(l mem.Line) (sharers uint64, owner int) {
	dl, ok := d.lines[l]
	if !ok {
		return 0, -1
	}
	return dl.sharers, dl.owner
}

// PendingCounts summarizes the module's in-flight work for deadlock
// reports: lines with an open transaction, total queued requests, and
// armed timers.
func (d *Directory) PendingCounts() (busy, queued, timers int) {
	for _, dl := range d.lines {
		if dl.busy {
			busy++
		}
		queued += len(dl.queue)
	}
	return busy, queued, d.timers.Len()
}

// DebugState renders the module's in-flight work for deadlock reports:
// every line with an open transaction or queued requesters, plus the
// pending timer count. Lines are sorted so the output is deterministic.
func (d *Directory) DebugState() string {
	type row struct {
		line   mem.Line
		busy   bool
		queued int
	}
	var rows []row
	for l, dl := range d.lines {
		if !dl.busy && len(dl.queue) == 0 {
			continue
		}
		rows = append(rows, row{line: l, busy: dl.busy, queued: len(dl.queue)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].line < rows[j].line })
	var b strings.Builder
	fmt.Fprintf(&b, "dir bank %d: %d busy line(s), %d timer(s)", d.bank, len(rows), d.timers.Len())
	for _, r := range rows {
		fmt.Fprintf(&b, "\n  line %#x: busy=%v queued=%d", uint32(r.line), r.busy, r.queued)
	}
	return b.String()
}
