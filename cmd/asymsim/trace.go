package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"asymfence"
	"asymfence/internal/sim"
)

// traceCmd handles `asymsim trace <group>:<app>`: one traced run,
// exported as Chrome trace_event JSON (loadable in Perfetto). The
// workload spec may come before or after the flags.
func traceCmd(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("asymsim trace", flag.ExitOnError)
	design := fs.String("design", "WS+", "fence design (S+, WS+, SW+, W+, Wee)")
	out := fs.String("trace-out", "", "output file (default stdout)")
	interval := fs.Int64("interval", 1000, "interval-sample period in cycles (negative disables)")
	events := fs.String("events", "all", "event classes: comma list of fence,wb,cpu,dir,noc, or all")
	maxEvents := fs.Int("max-events", 0, "bound the event buffer, allocated up front (ring, oldest dropped; 0 = unbounded)")
	cores := fs.Int("cores", 8, "core count (power of two)")
	scale := fs.Float64("scale", 0.25, "execution-time run scale")
	horizon := fs.Int64("horizon", 0, "throughput-run length in cycles (0 = default)")
	metricsOut := fs.String("metrics", "", "write the run's metrics snapshot to this file as JSON (\"-\" = stdout)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: asymsim trace <group>:<app> [flags]\n"+
			"       e.g. asymsim trace cilk:fib -trace-out fib.json\n\nflags:\n")
		fs.PrintDefaults()
	}

	var spec string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		spec, args = args[0], args[1:]
	}
	fs.Parse(args)
	if spec == "" {
		if fs.NArg() != 1 {
			fs.Usage()
			return 2
		}
		spec = fs.Arg(0)
	}
	group, app, ok := strings.Cut(spec, ":")
	if !ok {
		fmt.Fprintf(os.Stderr, "asymsim trace: workload spec must be <group>:<app>, e.g. cilk:fib (groups: %s)\n",
			strings.Join(asymfence.WorkloadGroups, ", "))
		return 2
	}
	d, err := asymfence.ParseDesign(*design)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asymsim trace:", err)
		return 2
	}
	mask, ok := asymfence.ParseEventMask(*events)
	if !ok {
		fmt.Fprintf(os.Stderr, "asymsim trace: bad -events %q (comma list of fence,wb,cpu,dir,noc, or all)\n", *events)
		return 2
	}
	if err := (sim.Config{NCores: *cores}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "asymsim trace:", err)
		return 2
	}
	path := *out
	if path == "" {
		path = "-" // the default: stdout
	}
	if _, ok := textOut(path, *metricsOut); !ok {
		fmt.Fprintln(os.Stderr, "asymsim trace: the trace and -metrics cannot both write to stdout; give -trace-out or -metrics a file")
		return 2
	}

	reg := newCLIMetrics(*metricsOut)
	res, err := asymfence.TraceWorkload(ctx, group, app, d, asymfence.TraceOptions{
		Cores: *cores, Scale: *scale, Horizon: *horizon,
		Mask: mask, MaxEvents: *maxEvents, SampleInterval: *interval, Metrics: reg,
	})
	if err != nil {
		// A DeadlockError's message already carries the full per-core
		// and per-module state dump.
		fmt.Fprintln(os.Stderr, "asymsim trace:", err)
		return 1
	}

	if err := writeOutput(path, res.WriteChrome); err != nil {
		fmt.Fprintln(os.Stderr, "asymsim trace:", err)
		return 1
	}
	if err := writeOutput(*metricsOut, reg.WriteJSON); err != nil {
		fmt.Fprintln(os.Stderr, "asymsim trace:", err)
		return 1
	}
	dropped := ""
	if res.Dropped > 0 {
		dropped = fmt.Sprintf(" (%d oldest dropped by -max-events)", res.Dropped)
	}
	fmt.Fprintf(os.Stderr, "asymsim trace: %s under %v: %d cycles, %d events%s, %d interval rows\n",
		spec, d, res.Meas.Cycles, len(res.Events), dropped, len(res.Samples))
	return 0
}
