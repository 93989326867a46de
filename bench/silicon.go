package main

import (
	"sync"
	"sync/atomic"
	"time"

	asymruntime "asymfence/runtime"
	"asymfence/runtime/thedeque"
	"asymfence/runtime/tlrw"
)

// siliconConfig sizes the silicon workloads.
type siliconConfig struct {
	// Window is one measured run of a port's Bench.
	Window time.Duration
	// SymWindows and FallbackWindows are the traced run's windows of the
	// symmetric variant and of the asymmetric one on the fallback path.
	SymWindows, FallbackWindows int
	// FenceCalls is the length of the light and full fence loops;
	// HeavyCalls the number of heavy fences timed one by one.
	FenceCalls, HeavyCalls int
	// WarmOps is how many uncontended hot-side operations set-up makes.
	WarmOps int
}

var siliconDefault = siliconConfig{
	Window: 500 * time.Millisecond, SymWindows: 5, FallbackWindows: 3,
	FenceCalls: 10_000_000, HeavyCalls: 20_000, WarmOps: 8_000_000,
}

// window is one measured run of a ported workload: hot-side operations
// completed (the throughput unit), heavy-side operations, and the
// port's misses (failed steals, torn reads).
type window struct {
	hot, rare, bad int64
	elapsed        time.Duration
}

func (w window) mops() float64 { return float64(w.hot) / w.elapsed.Seconds() / 1e6 }

// port is one ported workload and the per-layer metrics it owns.
type port struct {
	// window runs one Bench window in the asymmetric or the symmetric
	// variant.
	window func(r *run, asymmetric bool, d time.Duration) window
	// warm makes n hot-side operations of the asymmetric variant with
	// nothing contending: a fixed amount of work for set-up.
	warm func(r *run, n int)
	// torn marks a port whose misses are torn reads, which fail the run.
	torn bool
	// Metric names: the symmetric and fallback rates, the speed-up of
	// the asymmetric variant over the symmetric one, the heavy-side
	// operation count and the miss ratio ("" when not reported).
	sym, fallback, speedup, rareOps, missRatio string
}

// dequePort is the Cilk-THE deque: the owner pushes and takes, one
// thief steals (rate-limited, as steals are rare). Misses are failed
// steals.
var dequePort = port{
	window: func(r *run, asymmetric bool, d time.Duration) window {
		v := thedeque.Symmetric
		if asymmetric {
			v = thedeque.Asymmetric
		}
		end := r.span("thedeque.Bench")
		res := thedeque.Bench(v, thedeque.BenchOptions{Stealers: 1, Duration: d})
		end()
		return window{hot: res.OwnerOps, rare: res.StealOps, bad: res.FailedSteals, elapsed: res.Elapsed}
	},
	warm: func(r *run, n int) {
		defer r.span("thedeque.PushTake")()
		d := thedeque.New(64, thedeque.Asymmetric)
		for i := 0; i < n; i += 64 {
			for j := 0; j < 32; j++ {
				d.Push(int64(j))
			}
			for j := 0; j < 32; j++ {
				d.Take()
			}
		}
	},
	sym: "thedeque.sym_mops", fallback: "thedeque.fallback_mops", speedup: "thedeque.speedup",
	rareOps: "thedeque.steal_ops", missRatio: "thedeque.failed_steal_ratio",
}

// tlrwPort is the TLRW read-lock: one reader, and a writer that sleeps
// between writes. Misses are torn reads.
var tlrwPort = port{
	window: func(r *run, asymmetric bool, d time.Duration) window {
		v := tlrw.Symmetric
		if asymmetric {
			v = tlrw.Asymmetric
		}
		end := r.span("tlrw.Bench")
		res := tlrw.Bench(v, tlrw.BenchOptions{Readers: 1, Duration: d})
		end()
		return window{hot: res.ReaderOps, rare: res.WriterOps, bad: res.Torn, elapsed: res.Elapsed}
	},
	warm: func(r *run, n int) {
		defer r.span("tlrw.RLock")()
		l := tlrw.New(tlrw.Asymmetric)
		for i := 0; i < n; i++ {
			l.RLock(0)
			l.RUnlock(0)
		}
	},
	torn: true,
	sym:  "tlrw.sym_mreads", fallback: "tlrw.fallback_mreads", speedup: "tlrw.speedup",
	rareOps: "tlrw.writer_ops",
}

// siliconPlan is the fence runtime on real hardware, in membarrier mode:
// each step is one window of the port's asymmetric variant; one
// operation is one hot-side task or read transaction, and throughput
// counts them per second. The runtime must stay on the membarrier path
// with no degradation, and the TLRW port must see no torn read. No
// simulator code runs here, and the benchmark seed is not used.
func siliconPlan(r *run, c siliconConfig, p port) plan {
	var degradations, rare, bad int64
	var asym []float64 // the traced loop's asymmetric rates, Mops/s

	check := func(w window) {
		if p.torn && w.bad != 0 {
			r.fail("silicon: %d torn reads", w.bad)
		}
		st := asymruntime.ReadStats()
		if st.Degradations != degradations {
			r.fail("silicon: the runtime degraded %d times", st.Degradations-degradations)
			degradations = st.Degradations
		}
	}

	setup := func() {
		r.op()
		var err error
		d := r.timed("runtime.Use", func() { err = asymruntime.Use(asymruntime.ModeMembarrier) })
		if err != nil {
			r.fail("silicon: %v", err)
			return
		}
		if _, ok := r.values["runtime.register_us"]; !ok && r.tr != nil {
			r.set("runtime.register_us", float64(d)/float64(time.Microsecond))
		}
		degradations = asymruntime.ReadStats().Degradations
		p.warm(r, c.WarmOps)
	}

	step := func(int) (float64, time.Duration) {
		r.op()
		w := p.window(r, true, c.Window)
		check(w)
		if asymruntime.Active() != asymruntime.ModeMembarrier {
			r.fail("silicon: the runtime left the membarrier path")
		}
		if w.hot == 0 {
			r.fail("silicon: a window completed no operation")
			return 0, w.elapsed
		}
		r.lat = append(r.lat, ms(w.elapsed)/float64(w.hot))
		if r.tr != nil {
			asym = append(asym, w.mops())
			rare += w.rare
			bad += w.bad
		}
		return float64(w.hot), w.elapsed
	}

	extras := func() {
		windows := func(n int, asymmetric bool) float64 {
			var rates []float64
			for i := 0; i < n; i++ {
				r.op()
				w := p.window(r, asymmetric, c.Window)
				check(w)
				rates = append(rates, w.mops())
			}
			return median(rates)
		}
		sym := windows(c.SymWindows, false)
		if err := asymruntime.Use(asymruntime.ModeFallback); err != nil {
			r.fail("silicon: %v", err)
		}
		fallback := windows(c.FallbackWindows, true)
		if err := asymruntime.Use(asymruntime.ModeMembarrier); err != nil {
			r.fail("silicon: %v", err)
		}
		r.set(p.sym, sym)
		r.set(p.fallback, fallback)
		r.set(p.speedup, median(asym)/sym)
		r.set(p.rareOps, float64(rare))
		if p.missRatio != "" && rare+bad > 0 {
			r.set(p.missRatio, float64(bad)/float64(rare+bad))
		}
		fenceCosts(r, c)
		st := asymruntime.ReadStats()
		r.set("runtime.heavy_membarrier", float64(st.HeavyMembarrier))
		r.set("runtime.degradations", float64(st.Degradations))
	}

	return plan{setup: setup, setupReps: 3, step: step, extras: extras}
}

// fenceCosts times the runtime's fences per call: LightFence and the
// seq-cst FullFence in long loops, and HeavyFence one call at a time,
// first with the process idle and then with a second goroutine spinning
// on LightFence, the peer the membarrier must interrupt.
func fenceCosts(r *run, c siliconConfig) {
	// The loops call the fences directly, not through a func value, so
	// an inlinable LightFence is measured inlined, as callers get it.
	light := r.timed("runtime.LightFence", func() {
		for i := 0; i < c.FenceCalls; i++ {
			asymruntime.LightFence()
		}
	})
	full := r.timed("runtime.FullFence", func() {
		for i := 0; i < c.FenceCalls; i++ {
			asymruntime.FullFence()
		}
	})
	r.set("runtime.light_ns", float64(light)/float64(c.FenceCalls))
	r.set("runtime.full_ns", float64(full)/float64(c.FenceCalls))

	heavy := func(name string) []float64 {
		ns := make([]float64, c.HeavyCalls)
		r.timed(name, func() {
			for i := range ns {
				t0 := time.Now()
				asymruntime.HeavyFence()
				ns[i] = float64(time.Since(t0))
			}
		})
		return ns
	}
	r.set("runtime.heavy_idle_p50_ns", median(heavy("runtime.HeavyFence")))

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			asymruntime.LightFence()
		}
	}()
	busy := heavy("runtime.HeavyFence")
	stop.Store(true)
	wg.Wait()
	r.set("runtime.heavy_busy_p50_ns", median(busy))
	r.set("runtime.heavy_busy_p99_ns", percentile(busy, 99))
}
