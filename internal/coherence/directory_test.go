package coherence

import (
	"testing"
	"unsafe"

	"asymfence/internal/mem"
	"asymfence/internal/noc"
)

// harness drives one directory module directly, collecting the messages
// it sends through a real mesh.
type harness struct {
	mesh *Fabric
	dir  *Directory
	now  int64
}

func newHarness() *harness {
	mesh := noc.NewMesh[Msg](2, 2)
	grt := NewGRT()
	return &harness{mesh: mesh, dir: NewDirectory(0, 4, mesh, 128*1024, grt)}
}

// drain advances time until quiet, returning every message the directory
// sent, in order.
func (h *harness) drain() []Msg {
	var out []Msg
	for i := 0; i < 500; i++ {
		h.now++
		h.dir.Step(h.now)
		for n := 0; n < 4; n++ {
			for _, pkt := range h.mesh.Deliver(h.now, n) {
				out = append(out, pkt.Payload)
			}
		}
		if !h.mesh.Pending() && !h.dir.Pending() {
			break
		}
	}
	return out
}

func (h *harness) send(m Msg) { h.dir.Handle(h.now, m) }

// line0 homes at bank 0 with 4 banks.
const line0 = mem.Line(0)

func typesOf(ms []Msg) []MsgType {
	out := make([]MsgType, len(ms))
	for i, m := range ms {
		out[i] = m.Type
	}
	return out
}

func TestGetSFirstToucherGetsExclusive(t *testing.T) {
	h := newHarness()
	h.send(Msg{Type: GetS, Line: line0, Core: 1, ReqID: 1})
	ms := h.drain()
	if len(ms) != 1 || ms[0].Type != GrantE || ms[0].Core != 1 {
		t.Fatalf("got %v", typesOf(ms))
	}
	if _, owner := h.dir.SharersOf(line0); owner != 1 {
		t.Fatalf("owner %d, want 1", owner)
	}
}

func TestGetSFromOwnerTriggersDowngrade(t *testing.T) {
	h := newHarness()
	h.send(Msg{Type: GetS, Line: line0, Core: 1, ReqID: 1})
	h.drain()
	h.send(Msg{Type: GetS, Line: line0, Core: 2, ReqID: 2})
	ms := h.drain()
	if len(ms) != 1 || ms[0].Type != DowngradeReq || ms[0].Core != 2 {
		t.Fatalf("expected DowngradeReq to owner, got %v", typesOf(ms))
	}
	h.send(Msg{Type: DowngradeAck, Line: line0, Core: 1, ReqID: 2, Dirty: true})
	ms = h.drain()
	if len(ms) != 1 || ms[0].Type != GrantS {
		t.Fatalf("got %v", typesOf(ms))
	}
	sharers, owner := h.dir.SharersOf(line0)
	if owner != -1 || sharers != 0b110 {
		t.Fatalf("sharers=%b owner=%d", sharers, owner)
	}
}

func TestGetMInvalidatesSharers(t *testing.T) {
	h := newHarness()
	// Two sharers.
	h.send(Msg{Type: GetS, Line: line0, Core: 1, ReqID: 1})
	h.drain()
	h.send(Msg{Type: GetS, Line: line0, Core: 2, ReqID: 2})
	h.drain()
	h.send(Msg{Type: DowngradeAck, Line: line0, Core: 1, ReqID: 2})
	h.drain()
	// Core 3 wants to write.
	h.send(Msg{Type: GetM, Line: line0, Core: 3, ReqID: 3})
	ms := h.drain()
	if len(ms) != 2 || ms[0].Type != InvReq || ms[1].Type != InvReq {
		t.Fatalf("got %v", typesOf(ms))
	}
	h.send(Msg{Type: InvAck, Line: line0, Core: 1, ReqID: 3})
	h.send(Msg{Type: InvAck, Line: line0, Core: 2, ReqID: 3})
	ms = h.drain()
	if len(ms) != 1 || ms[0].Type != GrantM {
		t.Fatalf("got %v", typesOf(ms))
	}
	sharers, owner := h.dir.SharersOf(line0)
	if owner != 3 || sharers != 0 {
		t.Fatalf("sharers=%b owner=%d", sharers, owner)
	}
}

// TestBouncedWriteNacksAndKeepsBouncer is the paper's core mechanism: a
// sharer whose Bypass Set matches replies InvNack; the write transaction
// fails, the bouncer stays a sharer, and the requester is told to retry.
func TestBouncedWriteNacksAndKeepsBouncer(t *testing.T) {
	h := newHarness()
	h.send(Msg{Type: GetS, Line: line0, Core: 1, ReqID: 1})
	h.drain()
	h.send(Msg{Type: GetS, Line: line0, Core: 2, ReqID: 2})
	h.drain()
	h.send(Msg{Type: DowngradeAck, Line: line0, Core: 1, ReqID: 2})
	h.drain()
	h.send(Msg{Type: GetM, Line: line0, Core: 3, ReqID: 3})
	h.drain()
	h.send(Msg{Type: InvAck, Line: line0, Core: 1, ReqID: 3})  // core 1 invalidates
	h.send(Msg{Type: InvNack, Line: line0, Core: 2, ReqID: 3}) // core 2 bounces
	ms := h.drain()
	if len(ms) != 1 || ms[0].Type != NackRetry || ms[0].Core != 3 {
		t.Fatalf("got %v", typesOf(ms))
	}
	sharers, _ := h.dir.SharersOf(line0)
	if sharers&(1<<2) == 0 {
		t.Fatal("bouncer lost its sharer entry")
	}
	if sharers&(1<<1) != 0 {
		t.Fatal("acked sharer still listed")
	}
	if h.dir.Stats.BouncedWrites != 1 {
		t.Fatalf("bounce not counted: %+v", h.dir.Stats)
	}
}

// TestOrderOperation: an O-bit write completes even against a BS match —
// the matcher invalidates but stays a sharer, and the requester ends
// Shared (paper §3.3.1).
func TestOrderOperation(t *testing.T) {
	h := newHarness()
	h.send(Msg{Type: GetS, Line: line0, Core: 2, ReqID: 1})
	h.drain()
	h.send(Msg{Type: GetM, Line: line0, Core: 3, ReqID: 2, Order: true})
	ms := h.drain()
	if len(ms) != 1 || ms[0].Type != InvReq || !ms[0].Order {
		t.Fatalf("got %v", typesOf(ms))
	}
	h.send(Msg{Type: InvAckKeep, Line: line0, Core: 2, ReqID: 2})
	ms = h.drain()
	if len(ms) != 1 || ms[0].Type != GrantOrder {
		t.Fatalf("got %v", typesOf(ms))
	}
	sharers, owner := h.dir.SharersOf(line0)
	if owner != -1 || sharers&(1<<2) == 0 || sharers&(1<<3) == 0 {
		t.Fatalf("sharers=%b owner=%d; both matcher and requester must remain sharers", sharers, owner)
	}
	if h.dir.Stats.OrderOps != 1 {
		t.Fatal("order op not counted")
	}
}

// TestConditionalOrderFailsOnTrueSharing: a CO with a word-level overlap
// bounces back and the update is discarded (paper §3.3.2).
func TestConditionalOrderFailsOnTrueSharing(t *testing.T) {
	h := newHarness()
	h.send(Msg{Type: GetS, Line: line0, Core: 2, ReqID: 1})
	h.drain()
	h.send(Msg{Type: GetM, Line: line0, Core: 3, ReqID: 2, Order: true, WordMask: 0b0001})
	h.drain()
	h.send(Msg{Type: InvAckKeep, Line: line0, Core: 2, ReqID: 2, TrueShare: true})
	ms := h.drain()
	if len(ms) != 1 || ms[0].Type != NackRetry {
		t.Fatalf("got %v", typesOf(ms))
	}
	sharers, _ := h.dir.SharersOf(line0)
	if sharers&(1<<2) == 0 {
		t.Fatal("true-sharer dropped")
	}
	if h.dir.Stats.CondOrderFails != 1 {
		t.Fatal("CO failure not counted")
	}
}

func TestConditionalOrderCompletesOnFalseSharing(t *testing.T) {
	h := newHarness()
	h.send(Msg{Type: GetS, Line: line0, Core: 2, ReqID: 1})
	h.drain()
	h.send(Msg{Type: GetM, Line: line0, Core: 3, ReqID: 2, Order: true, WordMask: 0b0001})
	h.drain()
	h.send(Msg{Type: InvAckKeep, Line: line0, Core: 2, ReqID: 2, TrueShare: false})
	ms := h.drain()
	if len(ms) != 1 || ms[0].Type != GrantOrder {
		t.Fatalf("got %v", typesOf(ms))
	}
	if h.dir.Stats.CondOrderOks != 1 {
		t.Fatal("CO success not counted")
	}
}

// TestPutMKeepSharer: a dirty eviction of a line whose address is in the
// evictor's BS keeps the evictor as a sharer (paper §5.1).
func TestPutMKeepSharer(t *testing.T) {
	h := newHarness()
	h.send(Msg{Type: GetS, Line: line0, Core: 1, ReqID: 1})
	h.drain()
	h.send(Msg{Type: PutM, Line: line0, Core: 1, KeepSharer: true})
	h.drain()
	sharers, owner := h.dir.SharersOf(line0)
	if owner != -1 || sharers&(1<<1) == 0 {
		t.Fatalf("sharers=%b owner=%d; evictor must stay a sharer", sharers, owner)
	}
}

func TestRequestQueueingWhileBusy(t *testing.T) {
	h := newHarness()
	h.send(Msg{Type: GetS, Line: line0, Core: 1, ReqID: 1})
	// Before the storage latency elapses, a second request arrives.
	h.send(Msg{Type: GetS, Line: line0, Core: 2, ReqID: 2})
	ms := h.drain()
	// First a grant to core 1, then the queued request is serviced (via
	// downgrade of the new owner).
	if len(ms) < 2 || ms[0].Type != GrantE || ms[0].Core != 1 || ms[1].Type != DowngradeReq {
		t.Fatalf("got %v", typesOf(ms))
	}
}

func TestGRTDepositRemoveWithIDs(t *testing.T) {
	g := NewGRT()
	remote := g.Deposit(1, 100, []mem.Line{line0})
	if len(remote) != 0 {
		t.Fatalf("first deposit sees %v", remote)
	}
	remote = g.Deposit(2, 200, []mem.Line{mem.Line(64)})
	if len(remote) != 1 || remote[0] != line0 {
		t.Fatalf("second deposit sees %v", remote)
	}
	// A stale remove (older fence's id) must not clobber the live entry.
	g.Remove(1, 99)
	if len(g.Entry(1)) != 1 {
		t.Fatal("stale remove clobbered a live deposit")
	}
	g.Remove(1, 100)
	if len(g.Entry(1)) != 0 {
		t.Fatal("matching remove did not clear")
	}
}

func TestMsgSizes(t *testing.T) {
	if (&Msg{Type: GetM}).Size() != 8 {
		t.Error("plain GetM should be control sized")
	}
	if (&Msg{Type: GetM, Order: true}).Size() != 12 {
		t.Error("Order request carries its update")
	}
	if (&Msg{Type: GrantM}).Size() != 40 {
		t.Error("data grant should carry a line")
	}
	if (&Msg{Type: WeeDeposit, PS: []mem.Line{0, 32}}).Size() != 16 {
		t.Error("deposit size should include pending-set addresses")
	}
}

// TestMsgFootprint holds the in-memory size of a message and of the NoC
// packet carrying it: every packet in flight is copied by value through
// the mesh's queues, so a new field or a reordering that adds padding
// must show up here.
func TestMsgFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Msg{}); got > 56 {
		t.Errorf("coherence.Msg is %d bytes, want at most 56", got)
	}
	if got := unsafe.Sizeof(Packet{}); got > 88 {
		t.Errorf("noc.Packet[coherence.Msg] is %d bytes, want at most 88", got)
	}
}

func TestToDirectoryRouting(t *testing.T) {
	toDir := []MsgType{GetS, GetM, PutM, InvAck, InvNack, InvAckKeep, DowngradeAck, WeeDeposit, WeeRemove}
	toCore := []MsgType{InvReq, DowngradeReq, GrantS, GrantE, GrantM, GrantOrder, NackRetry, WeeDepositAck}
	for _, ty := range toDir {
		if !ToDirectory(ty) {
			t.Errorf("%v should route to the directory", ty)
		}
	}
	for _, ty := range toCore {
		if ToDirectory(ty) {
			t.Errorf("%v should route to the core", ty)
		}
	}
}
