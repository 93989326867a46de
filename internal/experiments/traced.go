package experiments

import (
	"context"
	"io"

	"asymfence/internal/fence"
	"asymfence/internal/metrics"
	"asymfence/internal/trace"
)

// TraceOptions configures a traced run. The zero value asks for every
// event class, an unbounded buffer, and quick-run workload sizing.
type TraceOptions struct {
	// Cores (<=0: DefaultCores).
	Cores int
	// Scale sizes execution-time workloads (default 0.25 — tracing
	// full-scale runs produces very large files).
	Scale float64
	// Horizon is the throughput-group run length (<=0: USTMHorizon).
	Horizon int64
	// Mask selects the recorded event classes (zero = all).
	Mask trace.Mask
	// MaxEvents bounds the event buffer ring-style, allocated in full
	// when the run starts (zero = unbounded).
	MaxEvents int
	// SampleInterval is the interval-metrics period in cycles
	// (default 1000; negative disables sampling).
	SampleInterval int64
	// Metrics, when non-nil, receives the run's machine counters.
	Metrics *metrics.Registry
}

func (o *TraceOptions) defaults() {
	if o.Scale == 0 {
		o.Scale = 0.25
	}
	if o.SampleInterval == 0 {
		o.SampleInterval = 1000
	}
	if o.SampleInterval < 0 {
		o.SampleInterval = 0
	}
}

// TraceRun is one traced execution: the reduced measurement plus the
// raw event stream and interval series, ready for the trace exporters.
type TraceRun struct {
	// Meas is the run's measurement, equal to what the engine returns
	// for the same job.
	Meas    *Measurement
	Events  []trace.Event
	Samples []trace.Sample
	// Dropped counts events the bounded buffer overwrote (zero when
	// MaxEvents was unbounded).
	Dropped uint64
}

// WriteChrome writes the trace in the Chrome trace_event JSON format,
// loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
func (t *TraceRun) WriteChrome(w io.Writer) error {
	return trace.WriteChrome(w, t.Events, t.Samples, t.Dropped)
}

// RunTraced executes one (group, app) workload under the given design
// with event tracing and interval sampling enabled: the same job the
// engine runs for that spec, with a tracer attached. The run honors
// ctx cancellation like the experiment engine does.
func RunTraced(ctx context.Context, group, app string, d fence.Design, opts TraceOptions) (*TraceRun, error) {
	opts.defaults()
	tr := trace.New(trace.Options{Mask: opts.Mask, MaxEvents: opts.MaxEvents})
	s := Spec{Group: group, App: app, Design: d, Cores: opts.Cores, Scale: opts.Scale, Horizon: opts.Horizon}
	meas, res, err := run(ctx, canonSpec(s), runObs{tr: tr, interval: opts.SampleInterval, metrics: opts.Metrics})
	if err != nil {
		return nil, err
	}
	return &TraceRun{
		Meas:    meas,
		Events:  tr.Events(),
		Samples: res.Intervals,
		Dropped: tr.Dropped(),
	}, nil
}
