package sim

import "asymfence/internal/metrics"

// wbOccBounds are the write-buffer occupancy histogram buckets: powers
// of two up to the Table 2 default WB size (64 entries).
var wbOccBounds = []int64{1, 2, 4, 8, 16, 32, 64}

// simMetrics holds the machine's metric handles plus the previously
// exported totals. Exports are delta-based: result() may run more than
// once on a machine (partial result on cancellation, then a final one),
// and deltas keep the shared registry from double-counting. A nil
// *simMetrics (metrics disabled) makes every method a no-op.
type simMetrics struct {
	cycles       *metrics.Counter
	fenceStrong  *metrics.Counter
	fenceWeak    *metrics.Counter
	fenceDemoted *metrics.Counter
	fenceStall   *metrics.Counter
	squashes     *metrics.Counter
	recoveries   *metrics.Counter
	wbBounced    *metrics.Counter
	wbRetries    *metrics.Counter
	wbOcc        *metrics.Histogram
	dirBounces   *metrics.Counter
	dirGetS      *metrics.Counter
	dirGetM      *metrics.Counter
	nocPackets   *metrics.Counter
	nocBytes     *metrics.Counter
	nocPeak      *metrics.Gauge
	runs         *metrics.Counter

	// last holds the totals already exported to the registry.
	last struct {
		cycles                       int64
		strong, weak, demoted, stall uint64
		squashes, recoveries         uint64
		wbBounced, wbRetries         uint64
		dirBounces, dirGetS, dirGetM uint64
		nocPackets, nocBytes         uint64
	}
}

// newSimMetrics registers the machine's instruments under the
// registry's "machine" scope (nil registry yields nil, disabling all
// observation at zero cost). The scope names are part of the snapshot
// schema documented in OBSERVABILITY.md.
func newSimMetrics(r *metrics.Registry) *simMetrics {
	if r == nil {
		return nil
	}
	m := r.Scope("machine")
	return &simMetrics{
		cycles:       m.Counter("cycles"),
		fenceStrong:  m.Scope("fence").Counter("strong"),
		fenceWeak:    m.Scope("fence").Counter("weak"),
		fenceDemoted: m.Scope("fence").Counter("demoted"),
		fenceStall:   m.Scope("fence").Counter("stall_cycles"),
		squashes:     m.Scope("cpu").Counter("squashes"),
		recoveries:   m.Scope("wplus").Counter("recoveries"),
		wbBounced:    m.Scope("wb").Counter("bounced_writes"),
		wbRetries:    m.Scope("wb").Counter("bounce_retries"),
		wbOcc:        m.Scope("wb").Histogram("occupancy", wbOccBounds...),
		dirBounces:   m.Scope("dir").Counter("bounced_writes"),
		dirGetS:      m.Scope("dir").Counter("gets"),
		dirGetM:      m.Scope("dir").Counter("getm"),
		nocPackets:   m.Scope("noc").Counter("packets"),
		nocBytes:     m.Scope("noc").Counter("bytes"),
		nocPeak:      m.Scope("noc").Gauge("inflight_peak"),
		runs:         m.Counter("runs"),
	}
}

// wbHist returns the live write-buffer occupancy histogram handle the
// cores observe into (nil when metrics are off).
func (sm *simMetrics) wbHist() *metrics.Histogram {
	if sm == nil {
		return nil
	}
	return sm.wbOcc
}

// export folds the machine's totals-so-far, r, into the registry.
// Counter updates commute, so batches running machines on concurrent
// workers against one shared registry still produce
// scheduling-independent totals.
func (sm *simMetrics) export(m *Machine, r *Result) {
	if sm == nil {
		return
	}
	addU := func(c *metrics.Counter, cur uint64, last *uint64) {
		c.Add(int64(cur - *last))
		*last = cur
	}
	l := &sm.last
	agg := r.Agg()
	sm.cycles.Add(r.Cycles - l.cycles)
	l.cycles = r.Cycles
	addU(sm.fenceStrong, agg.SFences, &l.strong)
	addU(sm.fenceWeak, agg.WFences, &l.weak)
	addU(sm.fenceDemoted, agg.DemotedWFences, &l.demoted)
	addU(sm.fenceStall, agg.FenceStallCycles, &l.stall)
	addU(sm.squashes, agg.Squashes, &l.squashes)
	addU(sm.recoveries, agg.Recoveries, &l.recoveries)
	addU(sm.wbBounced, agg.BouncedWrites, &l.wbBounced)
	addU(sm.wbRetries, agg.BounceRetries, &l.wbRetries)
	addU(sm.dirBounces, r.Dir.BouncedWrites, &l.dirBounces)
	addU(sm.dirGetS, r.Dir.GetSReqs, &l.dirGetS)
	addU(sm.dirGetM, r.Dir.GetMReqs, &l.dirGetM)
	addU(sm.nocPackets, r.NoC.Packets, &l.nocPackets)
	addU(sm.nocBytes, r.NoC.Bytes, &l.nocBytes)
	sm.nocPeak.SetMax(int64(m.mesh.PeakInFlight()))
}

// exportRun counts one run segment (called once per Run/RunFor return).
func (sm *simMetrics) exportRun() {
	if sm == nil {
		return
	}
	sm.runs.Inc()
}
