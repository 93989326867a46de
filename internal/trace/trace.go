// Package trace is the simulator's cycle-level observability layer: a
// deterministic event stream that every component of the simulated
// machine (cores, directory modules, the mesh) emits into, plus an
// interval sampler that turns the end-of-run cycle-breakdown aggregates
// into a per-core time series.
//
// The design constraint is that tracing must cost nothing when it is
// off: components hold a *Tracer that is nil when tracing is disabled,
// and Emit on a nil receiver returns immediately without allocating.
// A benchmark and an AllocsPerRun test in this package and in
// internal/sim hold that property.
//
// Determinism: the simulator itself is deterministic (see internal/sim),
// events are appended in emission order, and the exporters write fields
// in a fixed order — two identical runs produce byte-identical output.
// OBSERVABILITY.md documents the event schema and the export formats.
package trace

import "strings"

// Kind identifies an event type. The per-kind argument meanings are
// listed next to each constant and mirrored in the kindArgs table the
// exporters use for field naming.
type Kind uint8

const (
	// KFenceStrong: a fence finished executing with strong (conventional)
	// behavior: an SFence, a WFence under S+, or a demoted WeeFence.
	// node=core, a=pc.
	KFenceStrong Kind = iota
	// KFenceWeak: a weak fence retired with weak behavior and (if the
	// write buffer was non-empty) became an active fence. node=core,
	// a=pc, b=fence seq.
	KFenceWeak
	// KFenceDemote: a WeeFence demotion decision — the fence's pending
	// set spanned more than one directory module (b=-1), or a post-fence
	// access fell outside the fence's confined module (b=module).
	// node=core, a=pc.
	KFenceDemote
	// KFenceComplete: an active weak fence completed (its pre-fence
	// stores all merged). node=core, a=fence seq, b=Bypass Set occupancy
	// at completion.
	KFenceComplete
	// KWBBounce: the write-buffer head store's transaction was nacked off
	// a remote Bypass Set. node=core, line, a=store seq.
	KWBBounce
	// KWBRetry: a previously bounced head store was re-issued (possibly
	// upgraded to an Order/Conditional Order request, b=1 if so).
	// node=core, line, a=store seq.
	KWBRetry
	// KRecovery: a W+ deadlock-suspicion rollback fired. node=core,
	// a=fence seq, b=resume pc.
	KRecovery
	// KSquash: a performed-but-unretired speculative load was squashed by
	// a conflicting invalidation. node=core, line, a=load pc.
	KSquash
	// KBSBounce: this core's Bypass Set bounced an incoming invalidation
	// (InvNack sent). node=core, line, a=requesting core.
	KBSBounce
	// KDirGetS: a directory module accepted a GetS request. node=bank,
	// line, a=requesting core, b=request id.
	KDirGetS
	// KDirGetM: a directory module accepted a GetM request. node=bank,
	// line, a=requesting core, b=request id, c=1 for Order/CO flavors.
	KDirGetM
	// KDirGrant: a directory module granted a transaction. node=bank,
	// line, a=destination core, b=grant message type (coherence.MsgType).
	KDirGrant
	// KDirNack: a directory module bounced a write transaction back to
	// the requester (NackRetry). node=bank, line, a=destination core,
	// c=1 when a failed Conditional Order caused it.
	KDirNack
	// KDirWriteback: a PutM writeback reached its home module. node=bank,
	// line, a=evicting core, b=1 for keep-as-sharer writebacks.
	KDirWriteback
	// KGRTDeposit: a WeeFence pending set was deposited in this module's
	// GRT. node=bank, a=depositing core, b=pending-set size in lines.
	KGRTDeposit
	// KGRTRemove: a completed WeeFence's GRT entry was removed.
	// node=bank, a=core.
	KGRTRemove
	// KNoCSend: a packet was injected into the mesh. node=src, a=dst,
	// b=size in bytes, c=traffic category (noc.Category).
	KNoCSend
	// KNoCDeliver: a packet arrived at its destination. node=dst, a=src,
	// b=size in bytes, c=traffic category.
	KNoCDeliver

	numKinds
)

// kindNames are the stable schema names used by both exporters.
var kindNames = [numKinds]string{
	KFenceStrong:   "fence.strong",
	KFenceWeak:     "fence.weak",
	KFenceDemote:   "fence.demote",
	KFenceComplete: "fence.complete",
	KWBBounce:      "wb.bounce",
	KWBRetry:       "wb.retry",
	KRecovery:      "wplus.recovery",
	KSquash:        "cpu.squash",
	KBSBounce:      "bs.bounce",
	KDirGetS:       "dir.gets",
	KDirGetM:       "dir.getm",
	KDirGrant:      "dir.grant",
	KDirNack:       "dir.nack",
	KDirWriteback:  "dir.writeback",
	KGRTDeposit:    "grt.deposit",
	KGRTRemove:     "grt.remove",
	KNoCSend:       "noc.send",
	KNoCDeliver:    "noc.deliver",
}

// String returns the event kind's schema name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "kind(?)"
}

// Mask selects which event classes a tracer records. Emit calls for
// masked-out kinds are dropped before buffering.
type Mask uint32

const (
	// MaskFence covers the fence lifecycle (strong/weak/demote/complete)
	// and W+ recoveries.
	MaskFence Mask = 1 << iota
	// MaskWB covers write-buffer bounces and retries.
	MaskWB
	// MaskCPU covers core-side events outside the fence lifecycle:
	// speculative-load squashes and Bypass Set bounces given.
	MaskCPU
	// MaskDir covers directory-module coherence transactions and GRT
	// traffic.
	MaskDir
	// MaskNoC covers per-packet mesh send/deliver events (the highest-
	// frequency class by far).
	MaskNoC

	// MaskAll enables every class.
	MaskAll Mask = MaskFence | MaskWB | MaskCPU | MaskDir | MaskNoC
)

// kindClass maps each kind to its mask bit.
var kindClass = [numKinds]Mask{
	KFenceStrong: MaskFence, KFenceWeak: MaskFence, KFenceDemote: MaskFence,
	KFenceComplete: MaskFence, KRecovery: MaskFence,
	KWBBounce: MaskWB, KWBRetry: MaskWB,
	KSquash: MaskCPU, KBSBounce: MaskCPU,
	KDirGetS: MaskDir, KDirGetM: MaskDir, KDirGrant: MaskDir,
	KDirNack: MaskDir, KDirWriteback: MaskDir,
	KGRTDeposit: MaskDir, KGRTRemove: MaskDir,
	KNoCSend: MaskNoC, KNoCDeliver: MaskNoC,
}

// Event is one recorded occurrence. Node is the mesh node of the
// emitting component (core id or directory bank). Line is the cache
// line address when the kind has one (0 otherwise); A, B, C are the
// kind-specific arguments documented on the Kind constants.
type Event struct {
	Cycle   int64
	Kind    Kind
	Node    int32
	Line    uint64
	A, B, C int64
}

// Options configures a Tracer.
type Options struct {
	// Mask selects the recorded event classes (zero means MaskAll).
	Mask Mask
	// MaxEvents bounds the buffer; once full the oldest events are
	// overwritten ring-style and Dropped counts them. Zero is unbounded.
	MaxEvents int
	// Recorder, when non-nil, is a flight recorder that sees every
	// emitted event regardless of Mask (the ring write happens before
	// the mask check, so failure tails are complete even under a
	// narrow trace mask).
	Recorder *Recorder
}

// Tracer is a deterministic event buffer. A nil *Tracer is a valid,
// disabled tracer: Emit on it is a no-op that performs no allocation,
// so components can hold one unconditionally.
type Tracer struct {
	mask    Mask
	max     int
	evs     []Event
	start   int // ring head once the buffer has wrapped
	dropped uint64
	rec     *Recorder
}

// New builds a tracer. A zero Options value records every event class
// into an unbounded buffer.
func New(opts Options) *Tracer {
	m := opts.Mask
	if m == 0 {
		m = MaskAll
	}
	return &Tracer{mask: m, max: opts.MaxEvents, rec: opts.Recorder}
}

// NewRecording builds a recorder-only tracer: its mask is empty, so it
// buffers nothing, but every Emit lands in rec's ring. This is what the
// simulator substitutes when tracing is off, keeping the flight
// recorder always on at ring-store cost.
func NewRecording(rec *Recorder) *Tracer {
	return &Tracer{rec: rec}
}

// SetRecorder attaches a flight recorder if the tracer exists and does
// not already have one. It reports whether rec is now (or was already)
// the tracer's recorder.
func (t *Tracer) SetRecorder(rec *Recorder) bool {
	if t == nil {
		return false
	}
	if t.rec == nil {
		t.rec = rec
	}
	return t.rec == rec
}

// Recorder returns the attached flight recorder (nil on a nil tracer or
// when none is attached).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Emit records one event. It is safe (and free) to call on a nil
// tracer; this is the fast path every component sits on. The flight
// recorder (if attached) sees the event before the mask check.
func (t *Tracer) Emit(cycle int64, k Kind, node int32, line uint64, a, b, c int64) {
	if t == nil {
		return
	}
	e := Event{Cycle: cycle, Kind: k, Node: node, Line: line, A: a, B: b, C: c}
	if t.rec != nil {
		t.rec.record(e)
	}
	if t.mask&kindClass[k] == 0 {
		return
	}
	t.add(e)
}

func (t *Tracer) add(e Event) {
	if t.max > 0 && len(t.evs) == t.max {
		t.evs[t.start] = e
		t.start++
		if t.start == t.max {
			t.start = 0
		}
		t.dropped++
		return
	}
	t.evs = append(t.evs, e)
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.evs)
}

// Dropped returns how many events the ring overwrote.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the buffered events in emission order. The returned
// slice is freshly allocated (ring order is flattened).
func (t *Tracer) Events() []Event {
	if t == nil || len(t.evs) == 0 {
		return nil
	}
	out := make([]Event, 0, len(t.evs))
	out = append(out, t.evs[t.start:]...)
	out = append(out, t.evs[:t.start]...)
	return out
}

// ParseMask turns a comma-separated class list ("fence,dir,noc"; "all")
// into a Mask. Unknown class names report ok=false.
func ParseMask(s string) (Mask, bool) {
	if s == "" || s == "all" {
		return MaskAll, true
	}
	var m Mask
	for _, tok := range strings.Split(s, ",") {
		switch strings.TrimSpace(tok) {
		case "fence":
			m |= MaskFence
		case "wb":
			m |= MaskWB
		case "cpu":
			m |= MaskCPU
		case "dir":
			m |= MaskDir
		case "noc":
			m |= MaskNoC
		case "":
		default:
			return 0, false
		}
	}
	return m, true
}
