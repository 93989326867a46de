package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metric is one declared output metric. The two tables below are the
// only place names and units are spelled; bench_test.go holds them equal
// to BENCHMARK.json.
type metric struct{ name, unit string }

// endToEnd are the metrics a user waits on. Every workload reports all
// of them from an untraced run; what one "operation" and one unit of
// work are depends on the workload (see README.md).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput", "1/s"},
}

// perLayer are the traced run's metrics, named after the module they
// measure. Every traced run reports all of them; a layer the workload
// never calls reads 0.
var perLayer = []metric{
	{"bench.ops_attempted", "count"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.layer_coverage_frac", "ratio"},
	{"bench.op_p95_ms", "ms"},
	{"bench.gc_pause_frac", "ratio"},
	{"bench.max_rss_mb", "MB"},

	{"experiments.self_frac", "ratio"},
	{"store.self_frac", "ratio"},
	{"workloads.self_frac", "ratio"},
	{"litmus.self_frac", "ratio"},
	{"sim.self_frac", "ratio"},
	{"tso.self_frac", "ratio"},
	{"litmusrun.self_frac", "ratio"},
	{"runtime.self_frac", "ratio"},
	{"thedeque.self_frac", "ratio"},
	{"tlrw.self_frac", "ratio"},

	{"runner.jobs", "count"},
	{"runner.cache_hit_ratio", "ratio"},
	{"runner.store_hits", "count"},
	{"runner.job_p50_ms", "ms"},
	{"runner.job_p95_ms", "ms"},
	{"runner.worker_busy_frac", "ratio"},

	{"sim.cycles", "count"},
	{"sim.ns_per_cycle", "ns"},
	{"sim.pure_slowdown", "ratio"},
	{"sim.skip_frac", "ratio"},
	{"sim.allocs_per_kcycle", "count"},
	{"sim.noc_packets_per_kcycle", "count"},
	{"sim.new_ms", "ms"},
	{"sim.new_frac", "ratio"},
	{"sim.run_p50_us", "us"},

	{"workloads.build_ms", "ms"},

	{"store.open_ms", "ms"},
	{"store.close_ms", "ms"},
	{"store.writes", "count"},
	{"store.bytes", "bytes"},

	{"experiments.fig8_ms", "ms"},
	{"experiments.fig9_ms", "ms"},
	{"experiments.fig10_ms", "ms"},
	{"experiments.fig11_ms", "ms"},
	{"experiments.fig12_ms", "ms"},
	{"experiments.table4_ms", "ms"},
	{"experiments.headline_ms", "ms"},
	{"experiments.render_ms", "ms"},

	{"litmus.generate_us", "us"},
	{"tso.enumerate_p50_ms", "ms"},
	{"tso.enumerate_p95_ms", "ms"},
	{"tso.states_per_ms", "1/ms"},
	{"litmusrun.membarrier_iter_us", "us"},
	{"litmusrun.fallback_iter_us", "us"},
	{"conform.hw_coverage", "ratio"},

	{"runtime.light_ns", "ns"},
	{"runtime.full_ns", "ns"},
	{"runtime.heavy_idle_p50_ns", "ns"},
	{"runtime.heavy_busy_p50_ns", "ns"},
	{"runtime.heavy_busy_p99_ns", "ns"},
	{"runtime.register_us", "us"},
	{"runtime.heavy_membarrier", "count"},
	{"runtime.degradations", "count"},

	{"thedeque.sym_mops", "Mops/s"},
	{"thedeque.fallback_mops", "Mops/s"},
	{"thedeque.speedup", "ratio"},
	{"thedeque.steal_ops", "count"},
	{"thedeque.failed_steal_ratio", "ratio"},

	{"tlrw.sym_mreads", "Mops/s"},
	{"tlrw.fallback_mreads", "Mops/s"},
	{"tlrw.speedup", "ratio"},
	{"tlrw.writer_ops", "count"},
}

// layers are the modules whose calls the benchmark wraps in spans; a
// span's layer is its name up to the first dot.
var layers = []string{"experiments", "store", "workloads", "litmus", "sim", "tso", "litmusrun", "runtime", "thedeque", "tlrw"}

// spanMedians are per-layer metrics read straight off the spans: the
// median duration of every span with the given name, in unit.
var spanMedians = []struct {
	metric, span string
	unit         time.Duration
}{
	{"workloads.build_ms", "workloads.Build", time.Millisecond},
	{"sim.new_ms", "sim.New", time.Millisecond},
	{"sim.run_p50_us", "sim.Run", time.Microsecond},
	{"store.open_ms", "store.Open", time.Millisecond},
	{"experiments.render_ms", "experiments.render", time.Millisecond},
	{"litmus.generate_us", "litmus.Generate", time.Microsecond},
	{"tso.enumerate_p50_ms", "tso.Enumerate", time.Millisecond},
}

// run is one benchmark run in progress: its inputs, its tracer, its
// correctness accounting and the metrics it has measured so far.
type run struct {
	ctx     context.Context
	seed    uint64
	seconds time.Duration
	// tmp is a scratch directory the run owns (the suite's store).
	tmp string
	// traced marks a traced run. tr is its tracer, nil while the traced
	// run repeats its loop untraced (and always on untraced runs), so
	// workload code tests tr to know whether spans are being recorded.
	traced bool
	tr     *tracer

	// refs are the pinned references outputs are checked against, by
	// configuration key; seen collects every digest the run checked.
	refs, seen map[string]string

	// ref times the host reference in untraced runs (hostref.go).
	ref hostRef

	attempted, failed int
	// lat holds one latency sample per operation, in milliseconds.
	lat    []float64
	values map[string]float64
}

func newRun(ctx context.Context, seed uint64, seconds time.Duration, tmp string, traced bool) *run {
	r := &run{ctx: ctx, seed: seed, seconds: seconds, tmp: tmp, traced: traced,
		refs: goldens, seen: map[string]string{}, values: map[string]float64{}}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// op counts one attempted operation.
func (r *run) op() { r.attempted++ }

// fail counts a failed operation and reports the first few on stderr.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	}
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// matches reports whether digest equals the reference pinned for key; a
// key without a reference always matches.
func (r *run) matches(key, digest string) bool {
	r.seen[key] = digest
	want, ok := r.refs[key]
	return !ok || want == digest
}

// calibrate times the host reference when it is due. The orchestrator
// calls it between steps, and a workload whose steps are long between
// operations, outside the time it measures. Traced runs report no
// end-to-end metric and skip it.
func (r *run) calibrate() {
	if !r.traced && r.ref.due() {
		r.ref.sample()
	}
}

// span opens a span named after the layer call it wraps and returns the
// function that closes it; it records nothing while tracing is off.
func (r *run) span(name string) func() { return r.tr.start(name) }

// timed runs fn inside a span and returns its wall time.
func (r *run) timed(name string, fn func()) time.Duration {
	end := r.span(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	end()
	return d
}

// plan is a workload: the closed loop the orchestrator measures.
type plan struct {
	// setup prepares the loop. Untraced runs time it setupReps times (at
	// least once) and report the median as setup_s.
	setup     func()
	setupReps int
	// step is one closed-loop step; i counts the loop's steps from 0,
	// and a traced run makes each step twice, traced and then untraced.
	// It returns the work done, in the workload's throughput unit, and
	// the time spent in the operations it timed (excluding its own
	// correctness checks).
	step func(i int) (work float64, busy time.Duration)
	// minSteps is the fewest steps a loop makes, however long they take.
	minSteps int
	// extras measures, in traced runs only, per-layer numbers the loop
	// itself does not produce.
	extras func()
}

// stepSample is one step's outcome as the orchestrator saw it.
type stepSample struct {
	work       float64
	busy, wall time.Duration
}

// runStep makes step i and times it.
func runStep(step func(int) (float64, time.Duration), i int) stepSample {
	t0 := time.Now()
	w, busy := step(i)
	return stepSample{work: w, busy: busy, wall: time.Since(t0)}
}

// execute runs the plan. An untraced run reports the end-to-end
// metrics, scaled to the reference host speed. A traced run records
// spans over set-up, the loop and the extras, and runs every loop step
// twice in a row, traced and then untraced, so the two see the same
// host and the same inputs; the difference between them is what tracing
// cost.
func (r *run) execute(p plan) {
	minSteps := max(p.minSteps, 1)
	if !r.traced {
		r.ref.sample()
		var setups []float64
		for i := 0; i < max(p.setupReps, 1); i++ {
			t0 := time.Now()
			p.setup()
			setups = append(setups, time.Since(t0).Seconds())
		}
		var rates []float64
		start := time.Now()
		for i := 0; i < minSteps || time.Since(start) < r.seconds; i++ {
			r.calibrate()
			if s := runStep(p.step, i); s.busy > 0 {
				rates = append(rates, s.work/s.busy.Seconds())
			}
		}
		r.ref.sample()
		k := r.ref.scale()
		fmt.Fprintf(os.Stderr, "bench: host reference %.3f ms over %d samples; times scaled by %.4f\n",
			median(r.ref.samples)*1e3, len(r.ref.samples), k)
		r.set("setup_s", median(setups)*k)
		r.set("latency_p50_ms", median(r.lat)*k)
		r.set("throughput", median(rates)/k)
		return
	}

	tr := r.tr
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	endRoot := r.span("bench.workload")
	r.timed("bench.setup", p.setup)
	endLoop := r.span("bench.loop")
	var traced, plain []stepSample
	start := time.Now()
	for i := 0; i < minSteps || time.Since(start) < r.seconds; i++ {
		traced = append(traced, runStep(p.step, i))
		endPlain := r.span(untracedSpan)
		r.tr = nil
		plain = append(plain, runStep(p.step, i))
		r.tr = tr
		endPlain()
	}
	endLoop()
	if p.extras != nil {
		r.timed("bench.extra", p.extras)
	}
	endRoot()
	runtime.ReadMemStats(&ms1)

	root := tr.spans[0].End - tr.spans[0].Start
	r.set("bench.trace_overhead_frac", wallPerWork(traced)/wallPerWork(plain)-1)
	r.set("bench.op_p95_ms", percentile(r.lat, 95))
	r.set("bench.max_rss_mb", maxRSSMB())
	r.set("bench.gc_pause_frac", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/float64(root))
	r.spanMetrics(tr, root-sum(tr.durations(untracedSpan)))
}

// untracedSpan marks the untraced repeat of a loop step: its time is
// left out of the traced wall time the layers' shares are taken of.
const untracedSpan = "bench.untraced"

// spanMetrics derives the span-based per-layer metrics: each layer's
// share of the traced wall time (self time, so nested calls are not
// counted twice), their sum, and the per-call medians.
func (r *run) spanMetrics(tr *tracer, wall time.Duration) {
	self := selfTimes(tr.spans)
	byLayer := map[string]time.Duration{}
	for i, s := range tr.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		byLayer[layer] += self[i]
	}
	var covered time.Duration
	for _, l := range layers {
		covered += byLayer[l]
		r.set(l+".self_frac", float64(byLayer[l])/float64(wall))
	}
	r.set("bench.layer_coverage_frac", float64(covered)/float64(wall))

	for _, m := range spanMedians {
		r.set(m.metric, median(durationsIn(tr.durations(m.span), m.unit)))
	}
	r.set("tso.enumerate_p95_ms", percentile(durationsIn(tr.durations("tso.Enumerate"), time.Millisecond), 95))
	newT, runT := sum(tr.durations("sim.New")), sum(tr.durations("sim.Run"))
	if newT+runT > 0 {
		r.set("sim.new_frac", float64(newT)/float64(newT+runT))
	}
}

// wallPerWork is the loop's wall time per unit of work.
func wallPerWork(steps []stepSample) float64 {
	var work float64
	var wall time.Duration
	for _, s := range steps {
		work += s.work
		wall += s.wall
	}
	return wall.Seconds() / work
}

// maxRSSMB is the process's peak resident set size (VmHWM) in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// result is the benchmark's output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the output: every end-to-end metric for an untraced
// run, every per-layer metric for a traced one. A metric the workload
// did not measure reads 0 on a traced run; on an untraced run it is a
// bug in the workload and fails the run.
func (r *run) result() result {
	r.set("bench.ops_attempted", float64(r.attempted))
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := make(map[string]metricValue, len(defs))
	for _, m := range defs {
		v, ok := r.values[m.name]
		if !ok && !r.traced {
			r.fail("workload did not report %s", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "bench: %s is not finite (%v); reporting 0\n", m.name, v)
			v = 0
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: out}
}

// workload is one entry of the benchmark's workload table.
type workload struct {
	name string
	plan func(r *run) plan
}

// workloads is the benchmark's workload table, in BENCHMARK.json order.
var workloads = []workload{
	{"suite", func(r *run) plan { return suitePlan(r, suiteDefault) }},
	{"kernel-busy", func(r *run) plan { return kernelPlan(r, kernelDefault, busyRows) }},
	{"kernel-quiescent", func(r *run) plan { return kernelPlan(r, kernelDefault, quiescentRows) }},
	{"conform", func(r *run) plan { return conformPlan(r, conformDefault) }},
	{"silicon-deque", func(r *run) plan { return siliconPlan(r, siliconDefault, dequePort) }},
	{"silicon-tlrw", func(r *run) plan { return siliconPlan(r, siliconDefault, tlrwPort) }},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
