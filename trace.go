package asymfence

import (
	"context"
	"fmt"
	"strings"

	"asymfence/internal/experiments"
	"asymfence/internal/trace"
)

// TraceEvent is one recorded simulator event; see internal/trace and
// OBSERVABILITY.md for the per-kind schema.
type TraceEvent = trace.Event

// IntervalSample is one per-core cycle-breakdown delta row.
type IntervalSample = trace.Sample

// EventMask selects traced event classes.
type EventMask = trace.Mask

// ParseEventMask parses a comma-separated class list ("fence,dir,noc";
// "all") into an EventMask.
func ParseEventMask(s string) (EventMask, bool) { return trace.ParseMask(s) }

// TraceOptions configures TraceWorkload: machine size, run length,
// which events to keep and how often to sample. The zero value traces
// every event class on 8 cores with quick-run sizing (Scale 0.25,
// Horizon 60k cycles, a sample every 1000 cycles; a negative
// SampleInterval disables sampling). Metrics, when non-nil, receives
// the run's machine counters.
type TraceOptions = experiments.TraceOptions

// TraceResult is a traced workload execution: the run's measurement
// (Meas), the recorded event stream in emission order, the per-core
// interval series and the count of ring-overwritten events. Its
// WriteChrome exports the deterministic Chrome trace_event format
// documented in OBSERVABILITY.md.
type TraceResult = experiments.TraceRun

// ParseDesign parses a fence-design name ("S+", "WS+", "SW+", "W+",
// "Wee"; case-insensitive, "splus"-style aliases accepted).
func ParseDesign(s string) (Design, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "s+", "splus", "s":
		return SPlus, nil
	case "ws+", "wsplus", "ws":
		return WSPlus, nil
	case "sw+", "swplus", "sw":
		return SWPlus, nil
	case "w+", "wplus", "w":
		return WPlus, nil
	case "wee", "weefence":
		return Wee, nil
	}
	var names []string
	for _, d := range AllDesigns {
		names = append(names, d.String())
	}
	return 0, fmt.Errorf("asymfence: unknown fence design %q (valid: %s)",
		s, strings.Join(names, ", "))
}

// TraceWorkload executes one (group, app) workload under the given
// design with cycle-level event tracing and interval sampling enabled,
// e.g. TraceWorkload(ctx, "cilk", "fib", asymfence.WSPlus,
// TraceOptions{}). It runs the same job RunBatch would for that
// SimJob, with a tracer attached, so its Meas equals the batch
// measurement; it bypasses the cache and the store because the events
// are the point. Cancel ctx to abort the run; the error then wraps
// context.Canceled.
func TraceWorkload(ctx context.Context, group, app string, d Design, opts TraceOptions) (*TraceResult, error) {
	return experiments.RunTraced(ctx, group, app, d, opts)
}
