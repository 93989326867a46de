// Command asymsim regenerates the paper's evaluation artifacts and
// provides single-run observability tooling.
//
// Usage:
//
//	asymsim [flags] <experiment>           regenerate a paper artifact
//	asymsim -list                          list experiment ids
//	asymsim -version                       print build provenance
//	asymsim [flags] run <group>:<app>      one workload under every design
//	asymsim trace <group>:<app> [flags]    traced run (Perfetto/JSONL export)
//	asymsim serve [flags] <experiment>     run with a live observability server
//	asymsim fuzz [flags]                   litmus-fuzz under invariant checkers
//	asymsim conform [flags]                cross-domain litmus conformance sweep
//
// where <experiment> is one of fig8, fig9, fig10, fig11, fig12, table4,
// headline, or all. Each prints the same rows/series the paper reports
// (see DESIGN.md §5 for the mapping and the paper's reference values).
//
//	asymsim fig8                 # CilkApps execution time, 8 cores
//	asymsim -scale 0.25 fig11    # quick STAMP run
//	asymsim -md all > results.md # everything, as markdown
//
// Simulations run on a bounded worker pool (-j N; -seq forces one
// worker) against a process-wide measurement cache, so experiments
// that repeat each other's runs (fig10 repeats fig9's; the headline
// repeats fig8/fig9/fig11's; "all" benefits most) reuse results
// instead of re-simulating. Tables are byte-identical at any -j:
// simulations are deterministic and results merge in submission order.
// Per-job progress and a cache-accounting summary go to stderr (-q
// silences the per-job lines); tables go to stdout. Interrupting the
// process (Ctrl-C) cancels the in-flight simulations promptly.
//
// The trace subcommand records the cycle-level event stream of one
// (workload, design) run — fence lifecycle, write-buffer bounces,
// directory transactions, mesh packets — plus per-core interval
// metrics, and exports Chrome trace_event JSON (open in
// ui.perfetto.dev) or JSON Lines. See OBSERVABILITY.md for the schema.
//
//	asymsim trace cilk:fib -trace-out /tmp/t.json
//	asymsim trace ustm:List -design Wee -format jsonl -interval 500
//
// The conform subcommand cross-checks all three execution domains on
// generated litmus programs: the reference TSO machine enumerates each
// program's allowed final states, then the cycle simulator (every
// design, fault-injected schedules) and real goroutines
// (asymfence/runtime fences, every available mode) must stay inside
// their closures. Violations are minimized and the campaign exits 1.
// -report writes a byte-reproducible asymfence-conform/v1 JSON file;
// -quick is the CI shape (see ROBUSTNESS.md §8).
//
// Every subcommand accepts -metrics out.json: the run's machine and
// harness counters are collected into a metrics registry and written as
// a deterministic JSON snapshot on exit ("-" writes to stdout; see
// OBSERVABILITY.md for the schema). The serve subcommand additionally
// exposes the registry live over HTTP — /metrics in JSON or Prometheus
// text format, /debug/pprof for the Go profiler, /progress for the
// running batch — while an experiment executes:
//
//	asymsim serve -listen :6060 all
//	curl localhost:6060/metrics?format=json
//
// The experiment and serve paths accept -store dir, the persistent
// content-addressed measurement store: warm configurations load from
// disk instead of re-simulating, across process restarts, with
// byte-identical tables.
//
// Performance is measured by the separate benchmark module in bench/
// (bash bench/run.sh; see bench/README.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"asymfence"
	"asymfence/internal/buildinfo"
	"asymfence/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "trace":
			os.Exit(traceCmd(ctx, os.Args[2:]))
		case "fuzz":
			os.Exit(fuzzCmd(ctx, os.Args[2:]))
		case "conform":
			os.Exit(conformCmd(ctx, os.Args[2:]))
		case "serve":
			os.Exit(serveCmd(ctx, os.Args[2:]))
		}
	}

	cores := flag.Int("cores", 8, "core count (power of two; Table 2 default is 8)")
	scale := flag.Float64("scale", 1.0, "execution-time run scale (1.0 = full)")
	horizon := flag.Int64("horizon", 0, "throughput-run length in cycles (0 = default)")
	jobs := flag.Int("j", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	seq := flag.Bool("seq", false, "run simulations sequentially (same as -j 1)")
	quiet := flag.Bool("q", false, "suppress per-job progress lines on stderr")
	md := flag.Bool("md", false, "emit markdown tables")
	list := flag.Bool("list", false, "list experiment ids with descriptions and exit")
	metricsOut := flag.String("metrics", "", "write the run's metrics snapshot to this file as JSON (\"-\" = stdout)")
	storeDir := flag.String("store", "", "persistent measurement store directory (warm configs load from disk instead of re-simulating)")
	version := flag.Bool("version", false, "print build provenance and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: asymsim [flags] <experiment>\n"+
			"       asymsim [flags] run <group>:<app>     (e.g. run cilk:fib, run ustm:List)\n"+
			"       asymsim trace <group>:<app> [flags]   (asymsim trace -h for flags)\n"+
			"       asymsim fuzz [flags]                  (asymsim fuzz -h for flags)\n"+
			"       asymsim serve [flags] <experiment>    (asymsim serve -h for flags)\n"+
			"       asymsim conform [flags]               (asymsim conform -h for flags)\n\n"+
			"experiments: %v\n\nflags:\n",
			asymfence.ExperimentIDs)
		flag.PrintDefaults()
	}
	flag.Parse()
	if *version {
		fmt.Println("asymsim", buildinfo.Get())
		return
	}
	// Reject a nonsensical machine shape before any experiment starts
	// (same typed validation the simulator applies on Run).
	if err := (sim.Config{NCores: *cores}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "asymsim:", err)
		os.Exit(2)
	}
	if *list {
		for _, e := range asymfence.Experiments() {
			fmt.Printf("  %-9s %s\n", e.ID, e.Description)
		}
		return
	}
	workers := *jobs
	if *seq {
		workers = 1
	}
	reg := newCLIMetrics(*metricsOut)
	if maybeRun(ctx, flag.Args(), *cores, *scale, *horizon, workers, *quiet, reg) {
		if err := writeMetrics(reg, *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "asymsim:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	id := flag.Arg(0)
	// Resolve the id up front so a typo fails before any table of a
	// multi-experiment run has been printed.
	exp, ok := asymfence.LookupExperiment(id)
	if !ok {
		fmt.Fprintf(os.Stderr, "asymsim: unknown experiment %q (valid: %v; see -list)\n",
			id, asymfence.ExperimentIDs)
		os.Exit(2)
	}
	var progress io.Writer
	if !*quiet {
		progress = os.Stderr
	}
	var st *asymfence.MeasurementStore
	if *storeDir != "" {
		var err error
		if st, err = asymfence.OpenStore(*storeDir, asymfence.StoreOptions{Metrics: reg}); err != nil {
			fmt.Fprintln(os.Stderr, "asymsim:", err)
			os.Exit(1)
		}
	}
	var stats asymfence.RunStats
	start := time.Now()
	tables, err := exp.Run(ctx, asymfence.Options{
		RunConfig: asymfence.RunConfig{
			Jobs: workers, Progress: progress, Stats: &stats, Metrics: reg, Store: st,
		},
		Cores: *cores, Scale: *scale, Horizon: *horizon,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "asymsim:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
	for _, t := range tables {
		if *md {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.String())
		}
	}
	if err := writeMetrics(reg, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "asymsim:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "asymsim: %s: %d jobs (%d simulated, %d cache hits, %d store hits) in %s\n",
		id, stats.Jobs, stats.Simulated, stats.CacheHits, stats.StoreHits, time.Since(start).Round(time.Millisecond))
}
