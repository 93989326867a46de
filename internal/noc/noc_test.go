package noc

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeshFor(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{4, 2, 2}, {8, 4, 2}, {16, 4, 4}, {32, 8, 4},
	}
	for _, c := range cases {
		w, h := MeshFor(c.n)
		if w != c.w || h != c.h {
			t.Errorf("MeshFor(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
	}
}

func TestHops(t *testing.T) {
	m := NewMesh[string](4, 2) // nodes 0..3 top row, 4..7 bottom row
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {0, 4, 1}, {0, 7, 4}, {3, 4, 4},
	}
	for _, c := range cases {
		if got := m.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: hop count is symmetric and satisfies the triangle inequality.
func TestHopsMetricQuick(t *testing.T) {
	m := NewMesh[string](4, 4)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%16, int(b)%16, int(c)%16
		if m.Hops(x, y) != m.Hops(y, x) {
			return false
		}
		return m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatency(t *testing.T) {
	m := NewMesh[string](4, 2)
	// Same node: serialization only.
	if got := m.Latency(0, 0, 8); got != 1 {
		t.Errorf("local 8B latency %d, want 1", got)
	}
	// One hop, 40 bytes: 5 + ceil(40/32) = 7.
	if got := m.Latency(0, 1, 40); got != 7 {
		t.Errorf("1-hop 40B latency %d, want 7", got)
	}
}

func TestDeliveryOrderAndTiming(t *testing.T) {
	m := NewMesh[string](2, 2)
	m.Send(0, Packet[string]{Src: 0, Dst: 3, Size: 8, Payload: "far"})  // 2 hops: arrives at 11
	m.Send(0, Packet[string]{Src: 1, Dst: 3, Size: 8, Payload: "near"}) // 1 hop: arrives at 6
	if got := m.Deliver(5, 3); len(got) != 0 {
		t.Fatalf("early delivery: %v", got)
	}
	got := m.Deliver(6, 3)
	if len(got) != 1 || got[0].Payload != "near" {
		t.Fatalf("at 6: %v", got)
	}
	got = m.Deliver(11, 3)
	if len(got) != 1 || got[0].Payload != "far" {
		t.Fatalf("at 11: %v", got)
	}
	if m.Pending() {
		t.Fatal("mesh still pending after full delivery")
	}
}

// TestChannelFIFO is the protocol-critical property: packets between the
// same (src, dst) pair never reorder even when a later, smaller packet
// would nominally arrive earlier (e.g. a control message following a data
// grant). The MESI implementation relies on this.
func TestChannelFIFO(t *testing.T) {
	m := NewMesh[string](2, 2)
	m.Send(0, Packet[string]{Src: 0, Dst: 1, Size: 64, Payload: "data"}) // 2 serialization cycles
	m.Send(0, Packet[string]{Src: 0, Dst: 1, Size: 8, Payload: "ctrl"})  // would arrive first unordered
	var order []string
	for cyc := int64(1); cyc < 20; cyc++ {
		for _, p := range m.Deliver(cyc, 1) {
			order = append(order, p.Payload)
		}
	}
	if len(order) != 2 || order[0] != "data" || order[1] != "ctrl" {
		t.Fatalf("channel reordered: %v", order)
	}
}

func TestTrafficAccounting(t *testing.T) {
	m := NewMesh[string](2, 2)
	m.Send(0, Packet[string]{Src: 0, Dst: 1, Size: 8, Cat: CatProtocol})
	m.Send(0, Packet[string]{Src: 0, Dst: 1, Size: 40, Cat: CatRetry})
	m.Send(0, Packet[string]{Src: 0, Dst: 1, Size: 12, Cat: CatFence})
	s := m.Stats()
	if s.Packets != 3 || s.Bytes != 60 {
		t.Fatalf("totals: %+v", s)
	}
	if s.BytesIn(CatRetry) != 40 || s.BytesIn(CatFence) != 12 || s.BytesIn(CatProtocol) != 8 {
		t.Fatalf("per-category: %+v", s.BytesByCat)
	}
}

// TestArrivalsTrackQueueHeads checks the per-destination arrival cycles
// after every Send and DeliverInto: each node reports its queue head's
// arrival, or none (math.MaxInt64) when its queue is empty, and
// NextArrival reports their minimum. One send is clamped by the
// per-channel FIFO rule and one is delayed through SetDelayFn.
func TestArrivalsTrackQueueHeads(t *testing.T) {
	const none = math.MaxInt64
	m := NewMesh[string](2, 2)
	var buf []Packet[string]
	check := func(step string, want ...int64) {
		t.Helper()
		got := m.Arrivals()
		next := int64(none)
		for d, q := range m.queues {
			head := int64(none)
			if len(q.items) > 0 {
				head = q.items[0].at
			}
			if got[d] != head || got[d] != want[d] {
				t.Fatalf("%s: node %d reports %d, queue head arrives at %d, want %d", step, d, got[d], head, want[d])
			}
			next = min(next, want[d])
		}
		if m.NextArrival() != next {
			t.Fatalf("%s: NextArrival = %d, want %d", step, m.NextArrival(), next)
		}
	}
	deliver := func(now int64, dst, n int) {
		t.Helper()
		if buf = m.DeliverInto(now, dst, buf[:0]); len(buf) != n {
			t.Fatalf("DeliverInto(%d, %d) delivered %d packets, want %d", now, dst, len(buf), n)
		}
	}

	check("empty", none, none, none, none)
	m.Send(0, Packet[string]{Src: 0, Dst: 3, Size: 8}) // 2 hops: arrives at 11
	check("far send", none, none, none, 11)
	m.Send(0, Packet[string]{Src: 1, Dst: 3, Size: 8}) // 1 hop: arrives at 6, the new head
	check("near send", none, none, none, 6)
	m.Send(0, Packet[string]{Src: 0, Dst: 1, Size: 64}) // 1 hop, 2 serialization cycles: 7
	check("data send", none, 7, none, 6)
	m.Send(0, Packet[string]{Src: 0, Dst: 1, Size: 8}) // would arrive at 6; FIFO clamps it to 7
	check("clamped send", none, 7, none, 6)
	m.SetDelayFn(func(src, dst, size int) int64 { return 9 })
	m.Send(2, Packet[string]{Src: 0, Dst: 2, Size: 8}) // 1 hop at cycle 2, delayed 9: 17
	m.SetDelayFn(nil)
	check("delayed send", none, 7, 17, 6)

	deliver(5, 3, 0)
	check("deliver before arrival", none, 7, 17, 6)
	deliver(6, 3, 1)
	check("deliver node 3's head", none, 7, 17, 11)
	deliver(6, 1, 0) // the clamped packet is not due before 7
	check("deliver clamped early", none, 7, 17, 11)
	deliver(7, 1, 2)
	check("deliver node 1", none, none, 17, 11)
	deliver(11, 3, 1)
	check("deliver node 3", none, none, 17, none)
	deliver(16, 2, 0)
	check("deliver delayed early", none, none, 17, none)
	deliver(17, 2, 1)
	check("deliver delayed", none, none, none, none)
}

// TestQueuePopsInCycleThenPushOrder: a Queue pops values in ascending
// cycle, and values due the same cycle in the order they were pushed,
// whatever the push order of the cycles.
func TestQueuePopsInCycleThenPushOrder(t *testing.T) {
	f := func(cycles []uint8) bool {
		var q Queue[int]
		if q.Next() != math.MaxInt64 || q.Len() != 0 {
			return false
		}
		type item struct {
			at int64
			i  int
		}
		want := make([]item, len(cycles))
		for i, c := range cycles {
			q.Push(int64(c%8), i) // few distinct cycles: many ties
			want[i] = item{int64(c % 8), i}
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		for _, w := range want {
			if q.Next() != w.at || q.Pop() != w.i {
				return false
			}
		}
		return q.Len() == 0 && q.Next() == math.MaxInt64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
