package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"asymfence"
)

// suiteConfig sizes the suite workload's figure regeneration: experiment
// "all" at these asymfence.Options.
type suiteConfig struct {
	Cores      int
	Scale      float64
	Horizon    int64
	CoreCounts []int // nil: the harness default (4, 8, 16, 32)
	Jobs       int
}

// suiteDefault keeps the cold regeneration near 10 s on two CPUs, so set
// up plus a 10 s measured loop stays well under 30 s.
var suiteDefault = suiteConfig{Cores: 8, Scale: 0.1, Horizon: 10_000, Jobs: 2}

func (c suiteConfig) key() string {
	cc := "default"
	if c.CoreCounts != nil {
		cc = fmt.Sprint(c.CoreCounts)
	}
	return fmt.Sprintf("suite/all/c%d/s%g/h%d/cc-%s", c.Cores, c.Scale, c.Horizon, cc)
}

func (c suiteConfig) options(st *asymfence.MeasurementStore, reg *asymfence.MetricsRegistry, stats *asymfence.RunStats) asymfence.Options {
	return asymfence.Options{
		RunConfig:  asymfence.RunConfig{Jobs: c.Jobs, Store: st, Metrics: reg, Stats: stats},
		Cores:      c.Cores,
		Scale:      c.Scale,
		Horizon:    c.Horizon,
		CoreCounts: c.CoreCounts,
	}
}

// tablesDigest is the SHA-256 of the tables as `asymsim all` prints them.
func tablesDigest(tables []*asymfence.ExperimentTable) string {
	h := sha256.New()
	for _, t := range tables {
		fmt.Fprintln(h, t.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// suitePlan is the user's figure-regeneration loop. Set-up regenerates
// every figure cold into an empty measurement store; each step then
// regenerates them warm, as a later process would: open the store, drop
// the in-memory cache, run, close. Every regeneration must print the
// pinned tables, and a warm one must simulate nothing. The benchmark
// seed is not used: the paper's workloads are fixed at its own seed.
func suitePlan(r *run, c suiteConfig) plan {
	all, _ := asymfence.LookupExperiment("all")
	dir := filepath.Join(r.tmp, "store")
	var cold string // digest of the cold tables, which every warm run must equal

	checkTables := func(what string, tables []*asymfence.ExperimentTable) {
		d := tablesDigest(tables)
		if cold == "" {
			cold = d
		}
		if d != cold || !r.matches(c.key(), d) {
			r.fail("suite: %s tables digest %s differs from the cold run or the pinned reference", what, d)
		}
	}

	setup := func() {
		r.op()
		cold = ""
		asymfence.FlushSimCache()
		if err := os.RemoveAll(dir); err != nil {
			r.fail("suite: clearing the store: %v", err)
			return
		}
		if r.tr != nil {
			suiteColdTraced(r, c, dir, checkTables)
			return
		}
		st, err := asymfence.OpenStore(dir, asymfence.StoreOptions{})
		if err != nil {
			r.fail("suite: cold open: %v", err)
			return
		}
		tables, err := all.Run(r.ctx, c.options(st, nil, nil))
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			r.fail("suite: cold regeneration: %v", err)
			return
		}
		checkTables("cold", tables)
	}

	step := func(int) (float64, time.Duration) {
		r.op()
		var stats asymfence.RunStats
		var tables []*asymfence.ExperimentTable
		t0 := time.Now()
		end := r.span("store.Open")
		st, err := asymfence.OpenStore(dir, asymfence.StoreOptions{})
		end()
		if err != nil {
			r.fail("suite: warm open: %v", err)
			return 0, time.Since(t0)
		}
		r.timed("experiments.FlushSimCache", asymfence.FlushSimCache)
		r.timed("experiments.all", func() { tables, err = all.Run(r.ctx, c.options(st, nil, &stats)) })
		var cerr error
		r.timed("store.Close", func() { cerr = st.Close() })
		busy := time.Since(t0)
		r.lat = append(r.lat, ms(busy))
		if err == nil {
			err = cerr
		}
		if err != nil {
			r.fail("suite: warm regeneration: %v", err)
			return 0, busy
		}
		if stats.Simulated != 0 {
			r.fail("suite: warm regeneration simulated %d jobs", stats.Simulated)
		}
		end = r.span("experiments.render")
		checkTables("warm", tables)
		end()
		if r.tr != nil {
			r.set("runner.store_hits", float64(stats.StoreHits))
		}
		return float64(stats.Jobs), busy
	}

	return plan{setup: setup, step: step}
}

// suiteColdTraced is the traced run's cold regeneration: each registry
// entry in turn over the shared in-memory cache and one store, which
// runs the same simulations as "all" and yields its tables, with the
// harness's own counters collected into a metrics registry.
func suiteColdTraced(r *run, c suiteConfig, dir string, checkTables func(string, []*asymfence.ExperimentTable)) {
	reg := asymfence.NewMetricsRegistry()
	end := r.span("store.Open")
	st, err := asymfence.OpenStore(dir, asymfence.StoreOptions{Metrics: reg})
	end()
	if err != nil {
		r.fail("suite: cold open: %v", err)
		return
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var tables []*asymfence.ExperimentTable
	var wall time.Duration
	for _, e := range asymfence.Experiments() {
		if e.ID == "all" {
			continue
		}
		var ts []*asymfence.ExperimentTable
		d := r.timed("experiments."+e.ID, func() { ts, err = e.Run(r.ctx, c.options(st, reg, nil)) })
		if err != nil {
			r.fail("suite: cold %s: %v", e.ID, err)
			_ = st.Close()
			return
		}
		wall += d
		r.set("experiments."+e.ID+"_ms", ms(d))
		tables = append(tables, ts...)
	}
	runtime.ReadMemStats(&ms1)
	d := r.timed("store.Close", func() { err = st.Close() })
	if err != nil {
		r.fail("suite: cold close: %v", err)
		return
	}
	r.set("store.close_ms", ms(d))
	checkTables("cold", tables)

	v, hist := registryValues(reg)
	jobs, busy, cycles := v["engine.jobs"], v["engine.timing.worker_busy_ns"], v["machine.cycles"]
	r.set("runner.jobs", jobs)
	r.set("runner.cache_hit_ratio", v["engine.cache.hits"]/jobs)
	lat := hist["engine.timing.job_latency_ns"]
	r.set("runner.job_p50_ms", lat.quantile(0.50)/1e6)
	r.set("runner.job_p95_ms", lat.quantile(0.95)/1e6)
	r.set("runner.worker_busy_frac", busy/(v["engine.timing.workers"]*float64(wall)))
	r.set("sim.cycles", cycles)
	r.set("sim.ns_per_cycle", busy/cycles)
	r.set("sim.allocs_per_kcycle", float64(ms1.Mallocs-ms0.Mallocs)/(cycles/1000))
	r.set("store.writes", v["store.writes"])
	r.set("store.bytes", v["store.bytes"])
}

// histogram is one fixed-bucket histogram of a metrics snapshot.
type histogram struct {
	Count   int64 `json:"count"`
	Buckets []struct {
		LE any   `json:"le"` // upper bound, or "+Inf"
		N  int64 `json:"n"`
	} `json:"buckets"`
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket that holds it; a quantile in the +Inf bucket reads as the last
// finite bound.
func (h histogram) quantile(q float64) float64 {
	target := q * float64(h.Count)
	var seen, lo float64
	for _, b := range h.Buckets {
		hi, finite := b.LE.(float64)
		if !finite {
			return lo
		}
		if n := float64(b.N); n > 0 && seen+n >= target {
			return lo + (hi-lo)*(target-seen)/n
		}
		seen += float64(b.N)
		lo = hi
	}
	return lo
}

// registryValues reads a metrics snapshot back: counters and gauges of
// both the deterministic and the timing section by full name, and the
// histograms.
func registryValues(reg *asymfence.MetricsRegistry) (map[string]float64, map[string]histogram) {
	var snap struct {
		Metrics map[string]json.RawMessage `json:"metrics"`
		Timing  map[string]json.RawMessage `json:"timing"`
	}
	vals, hists := map[string]float64{}, map[string]histogram{}
	if err := json.Unmarshal(reg.JSON(), &snap); err != nil {
		return vals, hists
	}
	for _, section := range []map[string]json.RawMessage{snap.Metrics, snap.Timing} {
		for name, raw := range section {
			if strings.HasPrefix(strings.TrimSpace(string(raw)), "{") {
				var h histogram
				if json.Unmarshal(raw, &h) == nil {
					hists[name] = h
				}
				continue
			}
			var f float64
			if json.Unmarshal(raw, &f) == nil {
				vals[name] = f
			}
		}
	}
	return vals, hists
}
