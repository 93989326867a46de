// Package noc models the on-chip interconnect: a 2D mesh with XY routing,
// 5 cycles per hop and 256-bit (32-byte) links, per Table 2 of the paper.
//
// The model is latency- and bandwidth-accounting-oriented: a packet's
// delivery time is hop latency plus serialization, and every byte sent is
// attributed to a traffic category so the harness can reproduce the
// "% traffic increase" columns of Table 4. Link contention is not modeled
// (the paper's fence traffic is far below link capacity; Table 4 reports
// negligible increases).
//
// The mesh is generic over its payload type, so the coherence protocol's
// messages travel without an interface boxing allocation per send — the
// fabric is on the simulator's hottest path (see PERFORMANCE.md). For the
// same reason the per-destination arrival queues are Queues, not
// container/heap users.
//
// Determinism: packets are delivered in (arrival cycle, injection order)
// order, and point-to-point FIFO is enforced per (src, dst) channel.
// The mesh keeps each destination's next arrival cycle beside the
// queues: Arrivals exposes them so the simulator's cycle loop delivers
// only to nodes with a packet due, and NextArrival, their minimum, lets
// it skip dead cycles without changing delivery order.
package noc

import (
	"math"

	"asymfence/internal/trace"
)

// Default link parameters (Table 2).
const (
	DefaultHopLatency = 5  // cycles per mesh hop
	DefaultLinkBytes  = 32 // bytes transferred per cycle per link (256-bit)
)

// Category classifies traffic for byte accounting.
type Category uint8

const (
	// CatProtocol is ordinary coherence protocol traffic.
	CatProtocol Category = iota
	// CatRetry is traffic caused by bounced-and-retried write transactions
	// (the wf bounce mechanism). Table 4 columns 8 and 11 report the
	// increase this causes.
	CatRetry
	// CatFence is fence-management traffic (WeeFence GRT deposits/removals).
	CatFence
	numCategories
)

// Packet is one message in flight. The payload type is opaque to the mesh.
type Packet[P any] struct {
	Src, Dst int // node ids
	Size     int // bytes, for serialization latency and accounting
	Cat      Category
	Payload  P
}

// Queue is a min-heap of values, each due at a cycle, that pops them
// in (cycle, push order) order: values due the same cycle come out
// first in, first out. The mesh keeps one per destination for its
// packets in flight, and each coherence directory one for its storage
// timers. It is hand-rolled because container/heap's interface costs a
// conversion per push and pop on the simulator's hottest queue. The
// zero value is an empty queue.
type Queue[T any] struct {
	items []queued[T]
	seq   uint64 // pushes so far: the FIFO tie-break
}

type queued[T any] struct {
	at  int64
	seq uint64
	v   T
}

func (q *Queue[T]) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Push adds v, due at cycle at.
func (q *Queue[T]) Push(at int64, v T) {
	q.seq++
	q.items = append(q.items, queued[T]{at: at, seq: q.seq, v: v})
	h := q.items
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// Pop removes and returns the earliest value. The queue must not be
// empty.
func (q *Queue[T]) Pop() T {
	h := q.items
	top := h[0].v
	n := len(h) - 1
	h[0] = h[n]
	h[n] = queued[T]{} // release references to the GC
	q.items = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// Next returns the cycle the earliest value is due, or math.MaxInt64
// when the queue is empty.
func (q *Queue[T]) Next() int64 {
	if len(q.items) == 0 {
		return math.MaxInt64
	}
	return q.items[0].at
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return len(q.items) }

// Stats accumulates traffic accounting.
type Stats struct {
	Packets      uint64
	Bytes        uint64
	BytesByCat   [numCategories]uint64
	PacketsByCat [numCategories]uint64
}

// BytesIn returns the bytes sent in category c.
func (s *Stats) BytesIn(c Category) uint64 { return s.BytesByCat[c] }

// Mesh is the 2D interconnect. Node ids are 0..Nodes()-1, laid out row
// major on a width x height grid.
type Mesh[P any] struct {
	width, height int
	hopLatency    int64
	linkBytes     int
	queues        []Queue[Packet[P]] // one per destination
	// arrivals[d] is the arrival cycle of queues[d]'s head, or
	// math.MaxInt64 when the queue is empty (see Arrivals).
	arrivals []int64
	// lastArrive enforces point-to-point FIFO ordering per (src, dst)
	// channel: XY routing sends all traffic between a pair down one path,
	// so later packets can never overtake earlier ones even when their
	// serialization latencies differ. The coherence protocol relies on
	// this (e.g. a data grant must not be overtaken by a subsequent
	// invalidation from the same home module).
	lastArrive []int64
	inFlight   int
	peak       int // in-flight high-water mark
	stats      Stats
	tr         *trace.Tracer
	// delayFn, when non-nil, returns extra cycles to add to a packet's
	// delivery latency (deterministic fault injection). The extra delay
	// is applied before the per-channel FIFO clamp, so point-to-point
	// ordering survives jitter.
	delayFn func(src, dst, size int) int64
}

// NewMesh builds a width x height mesh with default link parameters.
func NewMesh[P any](width, height int) *Mesh[P] {
	m := &Mesh[P]{
		width:      width,
		height:     height,
		hopLatency: DefaultHopLatency,
		linkBytes:  DefaultLinkBytes,
		queues:     make([]Queue[Packet[P]], width*height),
		arrivals:   make([]int64, width*height),
		lastArrive: make([]int64, width*height*width*height),
	}
	for i := range m.arrivals {
		m.arrivals[i] = math.MaxInt64
	}
	return m
}

// MeshFor returns the smallest mesh dimensions used for n cores: the
// most-square width x height grid with width*height == n, preferring a
// wider grid (e.g. 8 -> 4x2, 16 -> 4x4, 32 -> 8x4).
func MeshFor(n int) (width, height int) {
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return n / best, best
}

// SetTracer attaches the machine's event tracer (nil disables; packet
// send/deliver events are the trace's highest-frequency class).
func (m *Mesh[P]) SetTracer(t *trace.Tracer) { m.tr = t }

// SetDelayFn attaches a fault-injection delay hook (nil disables). The
// hook is called once per Send with the packet's (src, dst, size) and
// its result is added to the mesh latency before FIFO clamping.
func (m *Mesh[P]) SetDelayFn(f func(src, dst, size int) int64) { m.delayFn = f }

// Nodes returns the node count.
func (m *Mesh[P]) Nodes() int { return m.width * m.height }

// Hops returns the XY-routed hop count between two nodes.
func (m *Mesh[P]) Hops(a, b int) int {
	ax, ay := a%m.width, a/m.width
	bx, by := b%m.width, b/m.width
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Latency returns the delivery latency for a packet of size bytes between
// two nodes: per-hop latency plus serialization on the 32-byte links.
// A local (same-node) message still costs one cycle.
func (m *Mesh[P]) Latency(src, dst, size int) int64 {
	ser := int64((size + m.linkBytes - 1) / m.linkBytes)
	if ser < 1 {
		ser = 1
	}
	return m.hopLatency*int64(m.Hops(src, dst)) + ser
}

// Send injects a packet at cycle now. It will be visible to the
// destination's Deliver at now + Latency.
func (m *Mesh[P]) Send(now int64, p Packet[P]) {
	if p.Dst < 0 || p.Dst >= len(m.queues) {
		panic("noc: bad destination")
	}
	m.stats.Packets++
	m.stats.Bytes += uint64(p.Size)
	m.stats.PacketsByCat[p.Cat]++
	m.stats.BytesByCat[p.Cat] += uint64(p.Size)
	m.inFlight++
	if m.inFlight > m.peak {
		m.peak = m.inFlight
	}
	arrive := now + m.Latency(p.Src, p.Dst, p.Size)
	if m.delayFn != nil {
		arrive += m.delayFn(p.Src, p.Dst, p.Size)
	}
	ch := p.Src*m.Nodes() + p.Dst
	if arrive < m.lastArrive[ch] {
		arrive = m.lastArrive[ch]
	}
	m.lastArrive[ch] = arrive
	q := &m.queues[p.Dst]
	q.Push(arrive, p)
	m.arrivals[p.Dst] = q.Next()
	m.tr.Emit(now, trace.KNoCSend, int32(p.Src), 0, int64(p.Dst), int64(p.Size), int64(p.Cat))
}

// Deliver pops every packet destined to dst that has arrived by cycle now,
// in deterministic (arrival, injection) order. The returned slice is
// freshly allocated; the cycle loop uses DeliverInto instead.
func (m *Mesh[P]) Deliver(now int64, dst int) []Packet[P] {
	return m.DeliverInto(now, dst, nil)
}

// DeliverInto is Deliver appending into buf (typically buf[:0] of a
// reused scratch slice), avoiding a per-call allocation on the cycle
// loop's hot path.
func (m *Mesh[P]) DeliverInto(now int64, dst int, buf []Packet[P]) []Packet[P] {
	q := &m.queues[dst]
	for q.Next() <= now {
		p := q.Pop()
		m.inFlight--
		m.tr.Emit(now, trace.KNoCDeliver, int32(dst), 0, int64(p.Src), int64(p.Size), int64(p.Cat))
		buf = append(buf, p)
	}
	m.arrivals[dst] = q.Next()
	return buf
}

// Pending reports whether any packet is still in flight anywhere.
func (m *Mesh[P]) Pending() bool { return m.inFlight > 0 }

// InFlight returns the number of packets currently in flight (deadlock
// diagnostics).
func (m *Mesh[P]) InFlight() int { return m.inFlight }

// PeakInFlight returns the in-flight high-water mark over the run
// (exported as the machine.noc.inflight_peak gauge).
func (m *Mesh[P]) PeakInFlight() int { return m.peak }

// Arrivals returns each destination's next arrival cycle: element d is
// the arrival cycle of the earliest packet in flight to node d, or
// math.MaxInt64 when none is. Send and DeliverInto keep it current in
// place, so the simulator's cycle loop reads it without touching the
// packet queues. The slice is the mesh's own; callers must not write it.
func (m *Mesh[P]) Arrivals() []int64 { return m.arrivals }

// NextArrival returns the earliest arrival cycle over every undelivered
// packet, the minimum of Arrivals, or math.MaxInt64 when nothing is in
// flight. The simulator's quiescence-aware stepping uses it to bound how
// far the clock may skip.
func (m *Mesh[P]) NextArrival() int64 {
	next := int64(math.MaxInt64)
	for _, t := range m.arrivals {
		next = min(next, t)
	}
	return next
}

// Stats returns a copy of the accumulated traffic statistics.
func (m *Mesh[P]) Stats() Stats { return m.stats }
