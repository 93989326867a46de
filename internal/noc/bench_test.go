package noc

import "testing"

// BenchmarkMeshSendDeliver measures the steady-state cost of the packet
// fabric: one Send plus a full-mesh delivery sweep per iteration on a
// 4x4 mesh. This is the per-cycle NoC work the simulator's cycle loop
// performs; it must stay allocation-free in steady state (the per-node
// heaps reuse their backing arrays, and DeliverInto reuses the caller's
// scratch buffer).
func BenchmarkMeshSendDeliver(b *testing.B) {
	m := NewMesh[uint64](4, 4)
	nodes := m.Nodes()
	buf := make([]Packet[uint64], 0, 8)
	rng := uint32(1)
	now := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		rng = rng*1664525 + 1013904223
		src := int(rng>>8) % nodes
		dst := int(rng>>16) % nodes
		m.Send(now, Packet[uint64]{Src: src, Dst: dst, Size: 8, Cat: CatProtocol, Payload: uint64(i)})
		for n := 0; n < nodes; n++ {
			buf = m.DeliverInto(now, n, buf[:0])
		}
	}
}

// BenchmarkMeshNextArrival measures the probe the cycle loop uses to
// decide how far it may fast-forward: the minimum over the mesh's
// per-destination arrival cycles (one per node, whatever the number of
// packets in flight), here with a typical handful of packets in flight.
func BenchmarkMeshNextArrival(b *testing.B) {
	m := NewMesh[uint64](4, 4)
	for i := 0; i < 8; i++ {
		m.Send(int64(i), Packet[uint64]{Src: i, Dst: 15 - i, Size: 8, Cat: CatProtocol})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.NextArrival() < 0 {
			b.Fatal("impossible")
		}
	}
}
