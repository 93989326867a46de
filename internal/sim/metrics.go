package sim

import (
	"asymfence/internal/metrics"
	"asymfence/internal/stats"
)

// wbOccBounds are the write-buffer occupancy histogram buckets: powers
// of two up to the Table 2 default WB size (64 entries).
var wbOccBounds = []int64{1, 2, 4, 8, 16, 32, 64}

// machineCounters lists the machine's run totals: each one's name under
// the registry's "machine" scope, and the Result field it reports (agg
// is the Result's per-core stats merged). The names are part of the
// snapshot schema documented in OBSERVABILITY.md.
var machineCounters = [...]struct {
	name string
	get  func(r *Result, agg *stats.Core) uint64
}{
	{"cycles", func(r *Result, _ *stats.Core) uint64 { return uint64(r.Cycles) }},
	{"fence.strong", func(_ *Result, agg *stats.Core) uint64 { return agg.SFences }},
	{"fence.weak", func(_ *Result, agg *stats.Core) uint64 { return agg.WFences }},
	{"fence.demoted", func(_ *Result, agg *stats.Core) uint64 { return agg.DemotedWFences }},
	{"fence.stall_cycles", func(_ *Result, agg *stats.Core) uint64 { return agg.FenceStallCycles }},
	{"cpu.squashes", func(_ *Result, agg *stats.Core) uint64 { return agg.Squashes }},
	{"wplus.recoveries", func(_ *Result, agg *stats.Core) uint64 { return agg.Recoveries }},
	{"wb.bounced_writes", func(_ *Result, agg *stats.Core) uint64 { return agg.BouncedWrites }},
	{"wb.bounce_retries", func(_ *Result, agg *stats.Core) uint64 { return agg.BounceRetries }},
	{"dir.bounced_writes", func(r *Result, _ *stats.Core) uint64 { return r.Dir.BouncedWrites }},
	{"dir.gets", func(r *Result, _ *stats.Core) uint64 { return r.Dir.GetSReqs }},
	{"dir.getm", func(r *Result, _ *stats.Core) uint64 { return r.Dir.GetMReqs }},
	{"noc.packets", func(r *Result, _ *stats.Core) uint64 { return r.NoC.Packets }},
	{"noc.bytes", func(r *Result, _ *stats.Core) uint64 { return r.NoC.Bytes }},
}

// simMetrics holds the machine's metric handles plus the run totals
// already exported. Exports are delta-based: result() may run more than
// once on a machine (partial result on cancellation, then a final one;
// or one per RunFor segment), and deltas keep the shared registry from
// double-counting. A nil *simMetrics (metrics disabled) makes every
// method a no-op.
type simMetrics struct {
	counters [len(machineCounters)]*metrics.Counter
	last     [len(machineCounters)]uint64
	wbOcc    *metrics.Histogram
	nocPeak  *metrics.Gauge
	runs     *metrics.Counter
}

// newSimMetrics registers the machine's instruments under the
// registry's "machine" scope (nil registry yields nil, disabling all
// observation at zero cost).
func newSimMetrics(r *metrics.Registry) *simMetrics {
	if r == nil {
		return nil
	}
	m := r.Scope("machine")
	sm := &simMetrics{
		wbOcc:   m.Scope("wb").Histogram("occupancy", wbOccBounds...),
		nocPeak: m.Scope("noc").Gauge("inflight_peak"),
		runs:    m.Counter("runs"),
	}
	for i, c := range machineCounters {
		sm.counters[i] = m.Counter(c.name)
	}
	return sm
}

// wbHist returns the live write-buffer occupancy histogram handle the
// cores observe into (nil when metrics are off).
func (sm *simMetrics) wbHist() *metrics.Histogram {
	if sm == nil {
		return nil
	}
	return sm.wbOcc
}

// export folds the machine's totals-so-far, r, into the registry and
// counts one run segment (result() runs once per Run/RunFor return).
// Counter updates commute, so batches running machines on concurrent
// workers against one shared registry still produce
// scheduling-independent totals.
func (sm *simMetrics) export(m *Machine, r *Result) {
	if sm == nil {
		return
	}
	agg := r.Agg()
	for i, c := range machineCounters {
		v := c.get(r, agg)
		sm.counters[i].Add(int64(v - sm.last[i]))
		sm.last[i] = v
	}
	sm.nocPeak.SetMax(int64(m.mesh.PeakInFlight()))
	sm.runs.Inc()
}
