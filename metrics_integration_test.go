package asymfence_test

import (
	"context"
	"encoding/json"
	"testing"

	"asymfence"
)

// metricsBatch is a small fixed batch exercising two workload groups.
func metricsBatch() []asymfence.SimJob {
	var jobs []asymfence.SimJob
	for _, d := range []asymfence.Design{asymfence.SPlus, asymfence.WSPlus} {
		jobs = append(jobs,
			asymfence.SimJob{Group: "cilk", App: "fib", Design: d, Cores: 4, Scale: 0.1},
			asymfence.SimJob{Group: "ustm", App: "List", Design: d, Cores: 4, Horizon: 10_000},
		)
	}
	return jobs
}

// snapshotSections splits a registry's JSON snapshot into its
// deterministic and timing sections.
func snapshotSections(t *testing.T, reg *asymfence.MetricsRegistry) (deterministic string, timing map[string]json.RawMessage) {
	t.Helper()
	var snap struct {
		Schema  string                     `json:"schema"`
		Metrics json.RawMessage            `json:"metrics"`
		Timing  map[string]json.RawMessage `json:"timing"`
	}
	if err := json.Unmarshal(reg.JSON(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Schema == "" {
		t.Fatalf("snapshot has no schema field")
	}
	return string(snap.Metrics), snap.Timing
}

// TestEngineMetricsDeterministicAcrossWorkers asserts the end-to-end
// contract the CLI relies on: the deterministic section of a batch's
// metrics snapshot is byte-identical at any worker count, while
// wall-clock quantities stay segregated in the timing section.
func TestEngineMetricsDeterministicAcrossWorkers(t *testing.T) {
	jobs := metricsBatch()
	run := func(workers int) *asymfence.MetricsRegistry {
		t.Helper()
		asymfence.FlushSimCache()
		reg := asymfence.NewMetricsRegistry()
		if _, err := asymfence.RunBatch(context.Background(), jobs, asymfence.RunConfig{Jobs: workers, Metrics: reg}); err != nil {
			t.Fatalf("RunBatch (j=%d): %v", workers, err)
		}
		return reg
	}
	seq, _ := snapshotSections(t, run(1))
	par, timing := snapshotSections(t, run(8))
	if seq != par {
		t.Errorf("deterministic metrics differ between -j1 and -j8:\nseq: %s\npar: %s", seq, par)
	}
	if len(timing) == 0 {
		t.Errorf("snapshot has no timing section (expected engine timing metrics)")
	}

	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(par), &m); err != nil {
		t.Fatalf("metrics section: %v", err)
	}
	for name, want := range map[string]string{
		"engine.jobs":         "4",
		"engine.cache.misses": "4",
		"engine.cache.hits":   "0",
	} {
		if got := string(m[name]); got != want {
			t.Errorf("%s = %s, want %s", name, got, want)
		}
	}
	if string(m["machine.runs"]) != "4" {
		t.Errorf("machine.runs = %s, want 4 (one export per simulated job)", m["machine.runs"])
	}
	for _, name := range []string{"engine.timing.job_latency_ns", "engine.timing.worker_busy_ns"} {
		if _, ok := timing[name]; !ok {
			t.Errorf("timing section missing %s", name)
		}
	}
}

// TestCacheHitMetrics asserts cache hits count deterministically when
// the same batch runs twice against a warm cache.
func TestCacheHitMetrics(t *testing.T) {
	jobs := metricsBatch()
	asymfence.FlushSimCache()
	reg := asymfence.NewMetricsRegistry()
	for i := 0; i < 2; i++ {
		if _, err := asymfence.RunBatch(context.Background(), jobs, asymfence.RunConfig{Jobs: 4, Metrics: reg}); err != nil {
			t.Fatalf("RunBatch pass %d: %v", i, err)
		}
	}
	det, _ := snapshotSections(t, reg)
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(det), &m); err != nil {
		t.Fatalf("metrics section: %v", err)
	}
	if got := string(m["engine.jobs"]); got != "8" {
		t.Errorf("engine.jobs = %s, want 8", got)
	}
	if got := string(m["engine.cache.hits"]); got != "4" {
		t.Errorf("engine.cache.hits = %s, want 4 (second pass fully cached)", got)
	}
	if got := string(m["machine.runs"]); got != "4" {
		t.Errorf("machine.runs = %s, want 4 (cache hits do not re-simulate)", got)
	}
}
