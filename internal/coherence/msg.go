// Package coherence implements the directory-based MESI protocol of the
// simulated machine (Table 2: full-mapped NUMA directory, MESI under TSO),
// including the fence-specific transactions the paper adds: invalidation
// bouncing against Bypass Sets, the Order and Conditional Order operations
// (WS+ / SW+), keep-as-sharer writebacks, and the WeeFence Global Reorder
// Table (GRT).
//
// The package contains the protocol messages and the home-side state
// machine (Directory). The requester/sharer side lives in the cpu package.
package coherence

import "asymfence/internal/mem"

// MsgType enumerates protocol messages.
type MsgType uint8

// Requests travel core -> directory; responses directory -> core;
// invalidations directory -> core with core -> directory replies.
const (
	// GetS requests a line in Shared state (load miss).
	GetS MsgType = iota
	// GetM requests a line in Modified state (store / atomic). The Order
	// and WordMask fields select the plain / Order / Conditional Order
	// flavors from the paper.
	GetM
	// PutM writes back a dirty evicted line. KeepSharer is set when the
	// evicting core still has the line's address in its Bypass Set and
	// must continue to observe writes to it (paper §5.1).
	PutM
	// InvReq asks a sharer/owner to invalidate its copy. Carries the
	// requester's Order bit and word mask so the sharer's Bypass Set can
	// decide between acking, bouncing, and invalidate-but-keep-sharer.
	InvReq
	// DowngradeReq asks the owner to drop Modified to Shared (load by
	// another core). Bypass Sets never block reads (TSO: BS entries are
	// loads; a downgrade does not hurt their monitoring ability).
	DowngradeReq
	// InvAck: copy invalidated, remove me from the sharer list.
	InvAck
	// InvNack: invalidation bounced off the sharer's Bypass Set; the
	// sharer keeps its copy and remains a sharer.
	InvNack
	// InvAckKeep: O-bit invalidation accepted — the copy is invalidated,
	// but the responder's Bypass Set matches, so the directory must keep
	// it as a sharer. TrueShare reports word-granularity overlap for
	// Conditional Order.
	InvAckKeep
	// DowngradeAck: owner downgraded (and conceptually wrote back).
	DowngradeAck
	// GrantS: requested line granted in Shared state.
	GrantS
	// GrantE: requested line granted in Exclusive state (no other sharer).
	GrantE
	// GrantM: requested line granted in Modified state; the write may
	// complete.
	GrantM
	// GrantOrder: an Order (or successful Conditional Order) transaction
	// completed — the write is merged, but the requester keeps the line in
	// Shared state and Bypass-Set matchers remain sharers.
	GrantOrder
	// NackRetry: the transaction failed (bounced, or CO with a
	// true-sharer) and the requester must retry.
	NackRetry
	// WeeDeposit registers a WeeFence's Pending Set in this module's GRT.
	WeeDeposit
	// WeeDepositAck returns the union of the other cores' Pending Sets in
	// this module (the requester's Remote PS).
	WeeDepositAck
	// WeeRemove clears the core's GRT entry when its WeeFence completes.
	WeeRemove
)

var msgNames = [...]string{
	GetS: "GetS", GetM: "GetM", PutM: "PutM", InvReq: "InvReq",
	DowngradeReq: "DowngradeReq", InvAck: "InvAck", InvNack: "InvNack",
	InvAckKeep: "InvAckKeep", DowngradeAck: "DowngradeAck",
	GrantS: "GrantS", GrantE: "GrantE", GrantM: "GrantM",
	GrantOrder: "GrantOrder", NackRetry: "NackRetry",
	WeeDeposit: "WeeDeposit", WeeDepositAck: "WeeDepositAck",
	WeeRemove: "WeeRemove",
}

// String returns the message type's wire name (for traces and tests).
func (t MsgType) String() string {
	if int(t) < len(msgNames) {
		return msgNames[t]
	}
	return "Msg(?)"
}

// Msg is one protocol message. It is carried as the payload of a noc
// packet, copied by value on every mesh queue operation; the one-byte
// fields sit together so they share one word (TestMsgFootprint holds
// the size).
type Msg struct {
	Type MsgType
	Line mem.Line
	// Core is the requesting/responding core id.
	Core int
	// ReqID matches responses to the requester's outstanding transaction.
	ReqID uint64
	// Order is the O bit of the paper's Order operation.
	Order bool
	// WordMask carries fine-grain (word) address bits for Conditional
	// Order (SW+); zero means line granularity.
	WordMask uint8
	// TrueShare reports word-level overlap in InvAckKeep responses.
	TrueShare bool
	// KeepSharer marks PutM writebacks whose evictor must stay a sharer.
	KeepSharer bool
	// Retry marks re-issued (previously bounced) requests, for traffic
	// accounting (Table 4).
	Retry bool
	// Dirty marks DowngradeAck/InvAck responses that carry written-back
	// data.
	Dirty bool
	// PS is a WeeFence pending set (WeeDeposit) or remote pending set
	// (WeeDepositAck).
	PS []mem.Line
}

// ctrlBytes and dataBytes are message sizes used for traffic accounting:
// an 8-byte control header, plus a 32-byte line payload for data-bearing
// messages, plus 4 bytes per pending-set address.
const (
	ctrlBytes = 8
	dataBytes = ctrlBytes + mem.LineSize
)

// Size returns the message's size in bytes for NoC accounting.
func (m *Msg) Size() int {
	switch m.Type {
	case GrantS, GrantE, GrantM, GrantOrder, PutM:
		return dataBytes
	case WeeDeposit, WeeDepositAck:
		return ctrlBytes + 4*len(m.PS)
	case GetM:
		if m.Order {
			// Order requests carry the update in the message (paper §3.3.1).
			return ctrlBytes + mem.WordSize
		}
		return ctrlBytes
	default:
		return ctrlBytes
	}
}
