package main

import (
	"fmt"
	"runtime"
	"time"

	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/stats"
	"asymfence/internal/workloads/cilk"
	"asymfence/internal/workloads/stm"
)

// kernelConfig sizes the kernel workloads' machines.
type kernelConfig struct {
	Cores int
	// Horizon is the fixed run length of a ustm row, in cycles.
	Horizon int64
	// Scale shrinks a cilk row's task count, as experiments.Scale does.
	Scale float64
}

// kernelDefault is the 64-core scale the kernel speed-up work targets.
var kernelDefault = kernelConfig{Cores: 64, Horizon: 10_000, Scale: 0.25}

// kernelRow is one simulated machine: an application of a workload
// group under one design.
type kernelRow struct {
	group, app string
	design     fence.Design
}

func (k kernelRow) String() string { return fmt.Sprintf("%s:%s/%s", k.group, k.app, k.design) }

func rowsOf(group string, apps ...string) []kernelRow {
	var rows []kernelRow
	for _, a := range apps {
		for _, d := range fence.AllDesigns {
			rows = append(rows, kernelRow{group, a, d})
		}
	}
	return rows
}

// busyRows never let the whole machine go quiet, so the fast-forward
// path skips nothing: List has a wide working set, Counter eight hot
// lines.
// quiescentRows run work-stealing apps to completion; cores idle on
// misses and empty deques, so 18-59% of cycles are fast-forwarded.
var (
	busyRows      = rowsOf("ustm", "List", "Counter")
	quiescentRows = rowsOf("cilk", "bucket", "fib")
)

func (c kernelConfig) key(k kernelRow, seed uint64) string {
	size := fmt.Sprintf("h%d", c.Horizon)
	if k.group == "cilk" {
		size = fmt.Sprintf("s%g", c.Scale)
	}
	return fmt.Sprintf("kernel/%s/c%d/%s/seed%d", k, c.Cores, size, seed)
}

// machine builds row k's workload from the benchmark seed and the
// machine that runs it. tasks is the cilk task count (0 for ustm).
func (c kernelConfig) machine(r *run, k kernelRow, pure bool) (m *sim.Machine, tasks int, err error) {
	al, store, pv := mem.NewAllocator(0x1000), mem.NewStore(), mem.NewPrivacy()
	var progs []*isa.Program
	var warm []mem.Region
	maxCycles := int64(200_000_000)
	end := r.span("workloads.Build")
	switch k.group {
	case "ustm":
		p, ok := stm.USTMByName(k.app)
		if !ok {
			end()
			return nil, 0, fmt.Errorf("unknown ustm app %q", k.app)
		}
		p.Iterations = 0 // run until the horizon
		wl := stm.Build(p, c.Cores, stm.AssignmentFor(k.design), r.seed, al, store, pv)
		progs, warm, maxCycles = wl.Progs, wl.WarmRegions, c.Horizon+1
	case "cilk":
		p, ok := cilk.AppByName(k.app)
		if !ok {
			end()
			return nil, 0, fmt.Errorf("unknown cilk app %q", k.app)
		}
		p.TasksPerWorker = max(int(float64(p.TasksPerWorker)*c.Scale), 4)
		wl := cilk.Build(p, c.Cores, cilk.AssignmentFor(k.design), r.seed, al, store, pv)
		progs, warm, tasks = wl.Progs, wl.WarmRegions, wl.TotalTasks
	}
	end()
	end = r.span("sim.New")
	m, err = sim.New(sim.Config{
		NCores: c.Cores, Design: k.design, Privacy: pv, WarmRegions: warm,
		MaxCycles: maxCycles, PureStepping: pure,
	}, progs, store)
	end()
	return m, tasks, err
}

// kernelAcc accumulates the traced loop's simulator totals.
type kernelAcc struct {
	cycles, skipped, packets int64
	allocs                   uint64
	run                      time.Duration
}

// kernelPlan is the simulator-speed loop: each step builds and runs
// every row once, so every step does the same mix. One row is one
// operation; throughput is simulated retired instructions per host
// second. Every row must be deterministic within the run and match its
// pinned digest, a cilk row must run each task exactly once, and a ustm
// row must commit transactions.
func kernelPlan(r *run, c kernelConfig, rows []kernelRow) plan {
	digests := map[string]string{}
	var acc kernelAcc
	var firstRun time.Duration // the traced loop's last run of rows[0]

	// runRow builds, runs and checks one row. busy is the time the row
	// took to build and run; a nil res means the row failed.
	runRow := func(k kernelRow, pure bool) (res *sim.Result, busy, runT time.Duration, digest string) {
		r.op()
		var before runtime.MemStats
		if r.tr != nil && !pure {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		m, tasks, err := c.machine(r, k, pure)
		if err != nil {
			r.fail("%s: %v", k, err)
			return nil, time.Since(t0), 0, ""
		}
		end := r.span("sim.Run")
		t1 := time.Now()
		if k.group == "ustm" {
			res, err = m.RunForCtx(r.ctx, c.Horizon)
		} else {
			res, err = m.RunCtx(r.ctx)
		}
		runT = time.Since(t1)
		end()
		busy = time.Since(t0)
		if err != nil {
			r.fail("%s: %v", k, err)
			return nil, busy, runT, ""
		}
		if r.tr != nil && !pure {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			acc.allocs += after.Mallocs - before.Mallocs
			acc.cycles += res.Cycles
			acc.skipped += m.SkippedCycles()
			acc.packets += int64(res.NoC.Packets)
			acc.run += runT
		}
		agg := res.Agg()
		switch {
		case k.group == "cilk" && (!res.Finished || agg.Events[stats.EvTask] != uint64(tasks)):
			r.fail("%s: finished=%v after %d of %d tasks", k, res.Finished, agg.Events[stats.EvTask], tasks)
		case k.group == "ustm" && agg.Events[stats.EvCommit] == 0:
			r.fail("%s: no transaction committed", k)
		}
		end = r.span("sim.Digest")
		digest = res.Digest()
		end()
		return res, busy, runT, digest
	}

	checkDigest := func(k kernelRow, dg string) {
		key := c.key(k, r.seed)
		if prev, ok := digests[key]; ok && prev != dg {
			r.fail("%s: digest %s differs from this run's earlier %s", k, dg, prev)
		} else if !r.matches(key, dg) {
			r.fail("%s: digest %s differs from the pinned reference", k, dg)
		}
		digests[key] = dg
	}

	setup := func() {
		for _, k := range rows {
			r.op()
			if _, _, err := c.machine(r, k, false); err != nil {
				r.fail("%s: %v", k, err)
			}
		}
	}

	step := func(int) (float64, time.Duration) {
		var instrs float64
		var busy time.Duration
		for i, k := range rows {
			r.calibrate()
			res, d, runT, dg := runRow(k, false)
			if i == 0 && r.tr != nil {
				firstRun = runT
			}
			busy += d
			r.lat = append(r.lat, ms(d))
			if res == nil {
				continue
			}
			checkDigest(k, dg)
			instrs += float64(res.Agg().RetiredInstrs)
		}
		return instrs, busy
	}

	// extras runs the first row again with the fast paths off: the
	// reference stepping must produce the same machine, and how much
	// longer it takes is what quiescence-aware stepping saves.
	extras := func() {
		k := rows[0]
		if res, _, runT, dg := runRow(k, true); res != nil {
			checkDigest(k, dg)
			if firstRun > 0 {
				r.set("sim.pure_slowdown", float64(runT)/float64(firstRun))
			}
		}
		if acc.cycles > 0 {
			kc := float64(acc.cycles) / 1000
			r.set("sim.cycles", float64(acc.cycles))
			r.set("sim.ns_per_cycle", float64(acc.run)/float64(acc.cycles))
			r.set("sim.skip_frac", float64(acc.skipped)/float64(acc.cycles))
			r.set("sim.allocs_per_kcycle", float64(acc.allocs)/kc)
			r.set("sim.noc_packets_per_kcycle", float64(acc.packets)/kc)
		}
	}

	return plan{setup: setup, setupReps: 3, step: step, extras: extras}
}
