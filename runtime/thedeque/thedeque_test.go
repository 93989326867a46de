package thedeque

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	asymruntime "asymfence/runtime"
)

// variants is the A/B pair every behavioral test covers.
var variants = []Variant{Symmetric, Asymmetric}

// testableModes returns the fence paths testable on this machine:
// fallback always, membarrier when the kernel supports it. Tests pin
// the mode globally, so none of them run in parallel.
func testableModes() []asymruntime.Mode {
	ms := []asymruntime.Mode{asymruntime.ModeFallback}
	if asymruntime.Supported() {
		ms = append(ms, asymruntime.ModeMembarrier)
	}
	return ms
}

func setMode(t *testing.T, m asymruntime.Mode) {
	t.Helper()
	if err := asymruntime.Use(m); err != nil {
		t.Skipf("mode %v unavailable: %v", m, err)
	}
	t.Cleanup(func() { _ = asymruntime.Use(asymruntime.ModeAuto) })
}

func TestOwnerLIFO(t *testing.T) {
	for _, v := range variants {
		d := New(16, v)
		for i := int64(1); i <= 5; i++ {
			if !d.Push(i) {
				t.Fatalf("%v: push %d failed", v, i)
			}
		}
		for want := int64(5); want >= 1; want-- {
			got, ok := d.Take()
			if !ok || got != want {
				t.Fatalf("%v: Take = %d,%v want %d", v, got, ok, want)
			}
		}
		if _, ok := d.Take(); ok {
			t.Fatalf("%v: Take on empty succeeded", v)
		}
	}
}

func TestStealFIFO(t *testing.T) {
	for _, v := range variants {
		d := New(16, v)
		for i := int64(1); i <= 5; i++ {
			d.Push(i)
		}
		for want := int64(1); want <= 5; want++ {
			got, ok := d.Steal()
			if !ok || got != want {
				t.Fatalf("%v: Steal = %d,%v want %d", v, got, ok, want)
			}
		}
		if _, ok := d.Steal(); ok {
			t.Fatalf("%v: Steal on empty succeeded", v)
		}
	}
}

func TestPushFull(t *testing.T) {
	d := New(8, Symmetric) // capacity rounds to 8; usable slots = 7
	var n int64
	for d.Push(n + 1) {
		n++
	}
	if n != 7 {
		t.Fatalf("pushed %d items into capacity-8 ring, want 7 (one slack slot)", n)
	}
	if d.Size() != 7 {
		t.Fatalf("Size = %d, want 7", d.Size())
	}
}

func TestMixedTakeSteal(t *testing.T) {
	d := New(32, Asymmetric)
	for i := int64(1); i <= 6; i++ {
		d.Push(i)
	}
	if v, ok := d.Steal(); !ok || v != 1 {
		t.Fatalf("Steal = %d,%v want 1", v, ok)
	}
	if v, ok := d.Take(); !ok || v != 6 {
		t.Fatalf("Take = %d,%v want 6", v, ok)
	}
	if got := d.Size(); got != 4 {
		t.Fatalf("Size = %d, want 4", got)
	}
}

// TestTakeKeepsItemsAfterWithdrawnClaim replays, deterministically, the
// interleaving that lost a task under the stress test: a thief publishes
// its claim of the oldest of two items (head = 1), the owner's Take reads
// that head, finds it equal to the index it is taking and waits for the
// lock, and the thief's claim then fails and is withdrawn (head = 0).
// Take must return the newest item without consuming the oldest, which a
// steal must still find.
func TestTakeKeepsItemsAfterWithdrawnClaim(t *testing.T) {
	for _, v := range variants {
		d := New(16, v)
		d.Push(1)
		d.Push(2)
		d.lock.Lock()
		d.head.Store(1) // the thief's published claim of index 0
		type taken struct {
			v  int64
			ok bool
		}
		done := make(chan taken)
		go func() {
			v, ok := d.Take()
			done <- taken{v, ok}
		}()
		waitForLockWaiter(t, "(*Deque).Take")
		d.head.Store(0) // the claim failed: withdraw it
		d.lock.Unlock()
		if got := <-done; !got.ok || got.v != 2 {
			t.Fatalf("%v: Take = %d,%v want 2", v, got.v, got.ok)
		}
		if got, ok := d.Steal(); !ok || got != 1 {
			t.Fatalf("%v: Steal = %d,%v want 1: the withdrawn claim's item was lost", v, got, ok)
		}
		if _, ok := d.Steal(); ok {
			t.Fatalf("%v: Steal on empty succeeded", v)
		}
	}
}

// waitForLockWaiter blocks until a goroutine running fn is parked on a
// sync.Mutex.
func waitForLockWaiter(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(stacks, "\n\n") {
			if strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, fn) {
				return
			}
		}
		runtime.Gosched()
	}
	t.Fatalf("no goroutine in %s parked on a mutex within 10 s", fn)
}

// TestStressExactlyOnce is the port's core safety test: one owner
// interleaving Push/Take with N concurrent stealers, every fence
// variant, every available fence mode, under -race when enabled. Every
// task value must be consumed exactly once — no lost items, no
// duplicates.
func TestStressExactlyOnce(t *testing.T) {
	const total = 20000
	stealers := 4
	if runtime.NumCPU() < 4 {
		stealers = 1
	}
	for _, m := range testableModes() {
		for _, v := range variants {
			t.Run(m.String()+"/"+v.String(), func(t *testing.T) {
				setMode(t, m)
				stressExactlyOnce(t, v, total, stealers)
			})
		}
	}
}

func stressExactlyOnce(t *testing.T, v Variant, total int64, stealers int) {
	d := New(128, v)
	var consumed atomic.Int64
	var wg sync.WaitGroup
	results := make([][]int64, stealers+1)

	for s := 0; s < stealers; s++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			var got []int64
			fails := 0
			for consumed.Load() < total {
				if task, ok := d.Steal(); ok {
					got = append(got, task)
					consumed.Add(1)
					fails = 0
				} else if fails++; fails%64 == 0 {
					runtime.Gosched()
				}
			}
			results[idx+1] = got
		}(s)
	}

	var mine []int64
	var next int64
	for consumed.Load() < total {
		for i := 0; i < 64 && next < total; i++ {
			if !d.Push(next + 1) {
				break
			}
			next++
		}
		took := false
		for {
			task, ok := d.Take()
			if !ok {
				break
			}
			mine = append(mine, task)
			consumed.Add(1)
			took = true
		}
		if !took && next == total {
			// Everything pushed and the owner sees empty: stealers are
			// finishing the tail. Yield rather than spin.
			runtime.Gosched()
		}
	}
	results[0] = mine
	wg.Wait()

	var all []int64
	for _, r := range results {
		all = append(all, r...)
	}
	if int64(len(all)) != total {
		t.Fatalf("consumed %d tasks, want %d", len(all), total)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, got := range all {
		if got != int64(i+1) {
			t.Fatalf("consumption multiset broken at %d: got %d, want %d (lost or duplicated task)", i, got, i+1)
		}
	}
	if v == Asymmetric && asymruntime.Active() == asymruntime.ModeMembarrier {
		if asymruntime.ReadStats().HeavyMembarrier == 0 {
			t.Fatalf("asymmetric stress run issued no membarrier heavy fences")
		}
	}
}

func TestBenchSmoke(t *testing.T) {
	for _, v := range variants {
		r := Bench(v, BenchOptions{Stealers: 1, Duration: 10 * time.Millisecond, StealPeriod: 50 * time.Microsecond})
		if r.OwnerOps == 0 {
			t.Fatalf("%v: bench completed no owner ops", v)
		}
		if r.Elapsed <= 0 {
			t.Fatalf("%v: bench reported non-positive elapsed", v)
		}
	}
}
