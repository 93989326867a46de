package thedeque

import (
	"sync"
	"sync/atomic"
	"time"
)

// BenchOptions shapes one microbenchmark run; see Bench.
type BenchOptions struct {
	// Stealers is the number of stealing goroutines (≥ 0).
	Stealers int
	// Batch is how many tasks the owner pushes before draining (the
	// work-stealing runtime's "spawn depth"). Default 64.
	Batch int
	// Grain is the per-task local work in xorshift rounds, modeling the
	// application computation between synchronization points. Default 0
	// (pure synchronization, the fence-cost ceiling).
	Grain int
	// StealPeriod is the pause between a thief's steal attempts. Steals
	// are rare in Cilk programs (paper §4.1: < 0.5% of tasks), so
	// thieves are rate-limited rather than busy-spinning — a spinning
	// thief would issue a membarrier storm no work-stealing runtime
	// exhibits. Default 100µs.
	StealPeriod time.Duration
	// Duration is the measured wall-clock window. Default 100ms.
	Duration time.Duration
}

// BenchResult aggregates one Bench run.
type BenchResult struct {
	// OwnerOps counts tasks the owner completed via Take.
	OwnerOps int64
	// StealOps counts tasks completed by thieves.
	StealOps int64
	// FailedSteals counts empty/lost Steal attempts.
	FailedSteals int64
	// Elapsed is the measured wall-clock of the owner loop.
	Elapsed time.Duration
}

// sink defeats dead-code elimination of the task work loops.
var sink atomic.Int64

// spin burns grain rounds of xorshift — the per-task "application work".
func spin(seed int64, grain int) {
	x := uint64(seed) | 1
	for i := 0; i < grain; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink.Store(int64(x))
}

// Bench runs the THE push/take owner loop against o.Stealers stealing
// goroutines for o.Duration and reports completed work. The owner's
// take path is the measured hot path (paper §4.1: steals are rare), so
// OwnerOps/Elapsed is the figure compared across variants (the
// silicon-deque benchmark workload in bench/ reports it).
func Bench(v Variant, o BenchOptions) BenchResult {
	if o.Batch <= 0 {
		o.Batch = 64
	}
	if o.StealPeriod <= 0 {
		o.StealPeriod = 100 * time.Microsecond
	}
	if o.Duration <= 0 {
		o.Duration = 100 * time.Millisecond
	}
	d := New(o.Batch*2, v)
	var stop atomic.Bool
	var res BenchResult
	var wg sync.WaitGroup
	for s := 0; s < o.Stealers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ops, fails int64
			for !stop.Load() {
				if task, ok := d.Steal(); ok {
					spin(task, o.Grain)
					ops++
				} else {
					fails++
				}
				time.Sleep(o.StealPeriod)
			}
			atomic.AddInt64(&res.StealOps, ops)
			atomic.AddInt64(&res.FailedSteals, fails)
		}()
	}

	var seq, ownerOps int64
	start := time.Now()
	deadline := start.Add(o.Duration)
	for {
		for i := 0; i < o.Batch; i++ {
			seq++
			if !d.Push(seq) {
				break
			}
		}
		for {
			task, ok := d.Take()
			if !ok {
				break
			}
			spin(task, o.Grain)
			ownerOps++
		}
		if time.Now().After(deadline) {
			break
		}
	}
	res.Elapsed = time.Since(start)
	stop.Store(true)
	wg.Wait()
	res.OwnerOps = ownerOps
	return res
}
