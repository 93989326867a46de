// Package thedeque ports the paper's first flagship workload out of the
// simulated ISA onto real goroutines: a Cilk-5 THE work-stealing deque
// (Frigo et al., PLDI'98; paper Fig. 5a and §4.1), built on the
// asymfence/runtime fence pair.
//
// The owner's Take and a thief's Steal race through a Dekker-style
// handshake: each side publishes its index claim (tail decrement /
// head increment), fences, then reads the other side's index, falling
// back to a mutex on conflict. Fewer than ~0.5% of tasks are stolen in
// Cilk programs (paper §4.1), so the owner's fence is the
// performance-critical one. The Asymmetric variant therefore places a
// LightFence in Take and a HeavyFence in Steal — the real-silicon WS+
// assignment — while the Symmetric baseline executes a full seq-cst
// fence on both sides, which is what the paper's S+ hardware (and a
// conservative port against the abstract memory model) does. See
// HARDWARE.md for the translation caveats and EXPERIMENTS.md
// ("Simulator vs. silicon") for measured-vs-predicted speedups.
//
// All cross-goroutine state is sync/atomic, so both variants are
// correct under the Go memory model in every fence mode; the stress
// tests assert exactly-once task consumption under -race in both
// membarrier and fallback modes.
package thedeque

import (
	"sync"
	"sync/atomic"

	asymruntime "asymfence/runtime"
)

// Variant selects the fence assignment of a Deque.
type Variant uint8

const (
	// Symmetric fences both Take and Steal with a full seq-cst fence —
	// the S+ baseline.
	Symmetric Variant = iota
	// Asymmetric fences Take with LightFence and Steal with HeavyFence
	// — the paper's WS+ assignment on real silicon.
	Asymmetric
)

// String returns the variant's bench-row spelling.
func (v Variant) String() string {
	if v == Asymmetric {
		return "asymmetric"
	}
	return "symmetric"
}

// Deque is a bounded Cilk-THE work-stealing deque of int64 tasks.
// Push and Take may be called only by the owner goroutine; Steal by
// any goroutine. Items live in [head, tail); the ring leaves one slot
// of slack so the single in-flight thief (thieves serialize on the
// lock) can finish reading its claimed slot before the owner reuses it.
type Deque struct {
	variant Variant
	mask    int64
	tasks   []atomic.Int64

	tail atomic.Int64 // one past the newest item; owner-written
	head atomic.Int64 // oldest item; thief-written under lock (owner: conflict path only)
	lock sync.Mutex   // serializes thieves, and the owner's last-item path

	// Role-private fence cells for the symmetric baseline, so S+ pays
	// for a store-buffer drain rather than fence-word ping-pong.
	ownerCell asymruntime.Cell
	thiefCell asymruntime.Cell
}

// New returns an empty deque with capacity rounded up to a power of
// two (minimum 8).
func New(capacity int, v Variant) *Deque {
	n := 8
	for n < capacity {
		n <<= 1
	}
	d := &Deque{variant: v, mask: int64(n - 1), tasks: make([]atomic.Int64, n)}
	return d
}

func (d *Deque) ownerFence() {
	if d.variant == Asymmetric {
		asymruntime.LightFence()
	} else {
		d.ownerCell.FullFence()
	}
}

func (d *Deque) thiefFence() {
	if d.variant == Asymmetric {
		asymruntime.HeavyFence()
	} else {
		d.thiefCell.FullFence()
	}
}

// Push appends a task at the tail. Owner only. It returns false when
// the ring is full (capacity-1 items, see the type comment).
func (d *Deque) Push(task int64) bool {
	t := d.tail.Load()
	h := d.head.Load()
	if t-h >= int64(len(d.tasks))-1 {
		return false
	}
	d.tasks[t&d.mask].Store(task)
	d.tail.Store(t + 1)
	return true
}

// Take removes and returns the newest task (LIFO). Owner only. The
// fast path is exactly the THE protocol: publish the tail decrement,
// fence, read head; only a potential conflict on the last item takes
// the lock.
func (d *Deque) Take() (int64, bool) {
	t := d.tail.Load() - 1 // index being claimed
	d.tail.Store(t)
	d.ownerFence()
	h := d.head.Load()
	if t > h { // ≥2 items remain: no thief can claim index t
		return d.tasks[t&d.mask].Load(), true
	}
	if t < h { // deque was empty: restore
		d.tail.Store(t + 1)
		return 0, false
	}
	// t == h: exactly one item, and a thief may be claiming it too.
	d.lock.Lock()
	h = d.head.Load()
	if h > t { // thief won
		d.tail.Store(t + 1)
		d.lock.Unlock()
		return 0, false
	}
	v := d.tasks[t&d.mask].Load()
	if h == t {
		// Consume the last item and leave the canonical empty state
		// head == tail == t+1.
		d.head.Store(t + 1)
		d.tail.Store(t + 1)
	}
	// h < t: the head we read was a thief's claim that failed and was
	// withdrawn while we waited for the lock, so the items [h, t) remain
	// for later takes and steals, and tail == t already excludes ours.
	d.lock.Unlock()
	return v, true
}

// Steal removes and returns the oldest task (FIFO). Safe from any
// goroutine. Thieves serialize on the lock and publish their head
// claim before fencing and reading tail — the heavy/symmetric side of
// the handshake.
func (d *Deque) Steal() (int64, bool) {
	d.lock.Lock()
	h := d.head.Load()
	d.head.Store(h + 1)
	d.thiefFence()
	t := d.tail.Load()
	if h >= t { // empty, or lost the race to the owner
		d.head.Store(h)
		d.lock.Unlock()
		return 0, false
	}
	v := d.tasks[h&d.mask].Load()
	d.lock.Unlock()
	return v, true
}

// Size returns a racy snapshot of the item count (may be momentarily
// negative mid-handshake; clamped to 0).
func (d *Deque) Size() int {
	n := d.tail.Load() - d.head.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}
