// Package trace is the simulator's cycle-level observability layer: a
// deterministic event stream that every component of the simulated
// machine (cores, directory modules, the mesh) emits into, plus an
// interval sampler that turns the end-of-run cycle-breakdown aggregates
// into a per-core time series.
//
// Every machine has exactly one event buffer, a Tracer. A traced run
// gets the caller's; an untraced one gets the flight recorder, a tracer
// that keeps every class and is bounded at RecorderDepth events.
// Failure reports (the simulator's DeadlockError, the oracle's
// ViolationError) carry that buffer's Tail. A bounded tracer allocates
// its ring when it is built and then overwrites it in place, so Emit
// never allocates on the cycle loop; a nil *Tracer is a valid, disabled
// tracer whose Emit returns at once. AllocsPerRun tests in this package
// and in internal/sim hold both properties.
//
// Determinism: the simulator itself is deterministic (see internal/sim),
// events are appended in emission order, and the exporter writes fields
// in a fixed order, so two identical runs produce byte-identical output.
// OBSERVABILITY.md documents the event schema and the export format.
package trace

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Kind identifies an event type. The per-kind argument meanings are
// listed next to each constant; the kinds table below names them for
// the exporter.
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

// kindInfo describes one Kind for the mask, the exporter and failure
// tails.
type kindInfo struct {
	name    string    // stable schema name
	class   Mask      // the one class bit that selects it
	args    [3]string // names of A, B, C; "" = unused, not exported
	hasLine bool      // whether Line is meaningful
}

// kinds describes every Kind, once.
var kinds = [numKinds]kindInfo{
	KFenceStrong:   {"fence.strong", MaskFence, [3]string{"pc"}, false},
	KFenceWeak:     {"fence.weak", MaskFence, [3]string{"pc", "seq"}, false},
	KFenceDemote:   {"fence.demote", MaskFence, [3]string{"pc", "module"}, false},
	KFenceComplete: {"fence.complete", MaskFence, [3]string{"seq", "bslines"}, false},
	KWBBounce:      {"wb.bounce", MaskWB, [3]string{"seq"}, true},
	KWBRetry:       {"wb.retry", MaskWB, [3]string{"seq", "order"}, true},
	KRecovery:      {"wplus.recovery", MaskFence, [3]string{"seq", "resumepc"}, false},
	KSquash:        {"cpu.squash", MaskCPU, [3]string{"pc"}, true},
	KBSBounce:      {"bs.bounce", MaskCPU, [3]string{"requester"}, true},
	KDirGetS:       {"dir.gets", MaskDir, [3]string{"core", "reqid"}, true},
	KDirGetM:       {"dir.getm", MaskDir, [3]string{"core", "reqid", "order"}, true},
	KDirGrant:      {"dir.grant", MaskDir, [3]string{"core", "msgtype"}, true},
	KDirNack:       {"dir.nack", MaskDir, [3]string{"core", "", "cofail"}, true},
	KDirWriteback:  {"dir.writeback", MaskDir, [3]string{"core", "keepsharer"}, true},
	KGRTDeposit:    {"grt.deposit", MaskDir, [3]string{"core", "pslines"}, false},
	KGRTRemove:     {"grt.remove", MaskDir, [3]string{"core"}, false},
	KNoCSend:       {"noc.send", MaskNoC, [3]string{"dst", "bytes", "cat"}, false},
	KNoCDeliver:    {"noc.deliver", MaskNoC, [3]string{"src", "bytes", "cat"}, false},
}

// String returns the event kind's schema name.
func (k Kind) String() string {
	if k < numKinds {
		return kinds[k].name
	}
	return "kind(?)"
}

// class returns the name of k's event class.
func (k Kind) class() string {
	return classNames[bits.TrailingZeros32(uint32(kinds[k].class))]
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

// classNames names the class bits in bit order: ParseMask reads them,
// and the exporter writes them as each instant's category.
var classNames = [...]string{"fence", "wb", "cpu", "dir", "noc"}

// ParseMask turns a comma-separated class list ("fence,dir,noc"; "all")
// into a Mask. Unknown class names, and a list that names no class,
// report ok=false.
func ParseMask(s string) (Mask, bool) {
	if s == "" || s == "all" {
		return MaskAll, true
	}
	var m Mask
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		i := slices.Index(classNames[:], tok)
		if i < 0 {
			return 0, false
		}
		m |= 1 << i
	}
	return m, m != 0
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

// String renders one event in the fixed-width form failure reports use.
func (e Event) String() string {
	return fmt.Sprintf("@%-8d %-14s node=%d line=%#x a=%d b=%d c=%d",
		e.Cycle, e.Kind, e.Node, e.Line, e.A, e.B, e.C)
}

// RecorderDepth is the flight recorder's bound, and the most events a
// Tail holds. 256 recent events is enough to show the failing
// interaction (a fence lifecycle, a bounce loop, the last few coherence
// transactions).
const RecorderDepth = 256

// Options configures a Tracer.
type Options struct {
	// Mask selects the recorded event classes (zero means MaskAll).
	Mask Mask
	// MaxEvents bounds the buffer, which New allocates in full; once
	// it is full the oldest events are overwritten ring-style and
	// Dropped counts them. Zero is unbounded.
	MaxEvents int
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
}

// New builds a tracer. A zero Options value records every event class
// into an unbounded buffer.
func New(opts Options) *Tracer {
	m := opts.Mask
	if m == 0 {
		m = MaskAll
	}
	t := &Tracer{mask: m, max: opts.MaxEvents}
	if t.max > 0 {
		t.evs = make([]Event, 0, t.max)
	}
	return t
}

// Emit records one event. It is safe (and free) to call on a nil
// tracer, and allocates nothing on a bounded one; this is the fast
// path every component sits on.
func (t *Tracer) Emit(cycle int64, k Kind, node int32, line uint64, a, b, c int64) {
	if t == nil || t.mask&kinds[k].class == 0 {
		return
	}
	e := Event{Cycle: cycle, Kind: k, Node: node, Line: line, A: a, B: b, C: c}
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

// Events returns the buffered events in emission order, in a freshly
// allocated slice (nil when there are none).
func (t *Tracer) Events() []Event { return t.last(t.Len()) }

// Tail returns the last RecorderDepth buffered events (all of them when
// there are fewer), oldest first, in a freshly allocated slice: the
// tail a failure report carries.
func (t *Tracer) Tail() []Event { return t.last(min(t.Len(), RecorderDepth)) }

// last returns the n most recent events in emission order.
func (t *Tracer) last(n int) []Event {
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	for i := len(t.evs) - n; i < len(t.evs); i++ {
		out = append(out, t.evs[(t.start+i)%len(t.evs)])
	}
	return out
}

// FormatTail renders a tail as the indented block that DeadlockError
// and ViolationError embed in their reports. It returns "" for an empty
// tail.
func FormatTail(evs []Event) string {
	if len(evs) == 0 {
		return ""
	}
	b := make([]byte, 0, 64*len(evs))
	b = fmt.Appendf(b, "last %d flight-recorder events before failure:", len(evs))
	for _, e := range evs {
		b = fmt.Appendf(b, "\n  %s", e)
	}
	return string(b)
}
