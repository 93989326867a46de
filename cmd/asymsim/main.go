// Command asymsim regenerates the paper's evaluation artifacts and
// provides single-run observability tooling.
//
// Usage:
//
//	asymsim [flags] <experiment>           regenerate a paper artifact
//	asymsim -list                          list experiment ids
//	asymsim -version                       print build provenance
//	asymsim [flags] run <group>:<app>      one workload under every design
//	asymsim trace <group>:<app> [flags]    traced run (Perfetto export)
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
// ui.perfetto.dev). See OBSERVABILITY.md for the schema.
//
//	asymsim trace cilk:fib -trace-out /tmp/t.json
//	asymsim trace ustm:List -design Wee -interval 500 -events fence,dir
//
// The conform subcommand is the one litmus campaign. It cross-checks
// all three execution domains on generated litmus programs: the
// reference TSO machine enumerates each program's allowed final states,
// then the cycle simulator (every design, fault-injected schedules,
// invariant oracle on) and real goroutines (asymfence/runtime fences,
// every available mode) must stay inside their closures. A seed too
// large to enumerate still runs its simulator sweep under the oracle.
// Violations are minimized and the campaign exits 1. -report writes a
// byte-reproducible asymfence-conform/v1 JSON file; -quick is the CI
// shape (see ROBUSTNESS.md §8).
//
// Every subcommand accepts -metrics out.json: the run's machine and
// harness counters are collected into a metrics registry and written as
// a deterministic JSON snapshot on exit ("-" writes to stdout; see
// OBSERVABILITY.md for the schema). That snapshot is the one metrics
// output; stderr is the one progress channel. An output flag given "-"
// (-metrics, conform -report, or trace's default of stdout) owns
// stdout: the command's tables and prose then go to stderr, and a
// command line that sends two outputs to stdout is a usage error.
//
// Experiments and run share one command line and one job path: every
// simulation goes through the same asymfence.RunConfig, so -j, -q,
// -metrics and -store dir (the persistent content-addressed measurement
// store) apply to both. Warm configurations load from disk instead of
// re-simulating, across process restarts, with byte-identical output.
//
// Performance is measured by the separate benchmark module in bench/
// (bash bench/run.sh; see bench/README.md). To profile a whole
// regeneration, run the root package's figure benchmarks
// (BenchmarkFig8CilkApps ... BenchmarkHeadlineAverages) under go test
// -cpuprofile; see PERFORMANCE.md.
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
		case "conform":
			os.Exit(conformCmd(ctx, os.Args[2:]))
		}
	}
	c := newExperimentCmd()
	if code, done := c.parse(os.Args[1:]); done {
		os.Exit(code)
	}
	os.Exit(c.run(ctx))
}

// experimentCmd is the experiment path, `asymsim [flags] <experiment>`
// or `asymsim [flags] run <group>:<app>`: its flags, and its one
// run/print/summary sequence.
type experimentCmd struct {
	fs *flag.FlagSet

	cores                *int
	scale                *float64
	horizon              *int64
	jobs                 *int
	seq, quiet, md       *bool
	list, version        *bool
	metricsOut, storeDir *string

	// Set by parse: the target's label for the summary line, the
	// function that runs it and prints its tables, and where they go
	// (stdout, or stderr when -metrics - owns stdout).
	id     string
	target func(ctx context.Context, cfg asymfence.RunConfig) error
	out    io.Writer
}

// newExperimentCmd registers the experiment flags on a new flag set.
func newExperimentCmd() *experimentCmd {
	fs := flag.NewFlagSet("asymsim", flag.ExitOnError)
	c := &experimentCmd{
		fs:         fs,
		cores:      fs.Int("cores", 8, "core count (power of two; Table 2 default is 8)"),
		scale:      fs.Float64("scale", 1.0, "execution-time run scale (1.0 = full)"),
		horizon:    fs.Int64("horizon", 0, "throughput-run length in cycles (0 = default)"),
		jobs:       fs.Int("j", 0, "simulation worker pool size (0 = GOMAXPROCS)"),
		seq:        fs.Bool("seq", false, "run simulations sequentially (same as -j 1)"),
		quiet:      fs.Bool("q", false, "suppress per-job progress lines on stderr"),
		md:         fs.Bool("md", false, "emit markdown tables"),
		list:       fs.Bool("list", false, "list experiment ids with descriptions and exit"),
		version:    fs.Bool("version", false, "print build provenance and exit"),
		metricsOut: fs.String("metrics", "", "write the run's metrics snapshot to this file as JSON (\"-\" = stdout)"),
		storeDir:   fs.String("store", "", "persistent measurement store directory (warm configs load from disk instead of re-simulating)"),
	}
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: asymsim [flags] <experiment>\n"+
			"       asymsim [flags] run <group>:<app>     (e.g. run cilk:fib, run ustm:List)\n"+
			"       asymsim trace <group>:<app> [flags]   (asymsim trace -h for flags)\n"+
			"       asymsim conform [flags]               (asymsim conform -h for flags)\n"+
			"experiments: %v\n\nflags:\n", asymfence.ExperimentIDs)
		fs.PrintDefaults()
	}
	return c
}

// parse parses args and resolves the positional target before anything
// runs, so a typo fails before any table has been printed. done reports
// that the command already finished (-list, -version, or an invalid
// command line) with exit code code.
func (c *experimentCmd) parse(args []string) (code int, done bool) {
	c.fs.Parse(args)
	if *c.version {
		fmt.Println("asymsim", buildinfo.Get())
		return 0, true
	}
	// Reject a nonsensical machine shape before any experiment starts
	// (same typed validation the simulator applies on Run).
	if err := (sim.Config{NCores: *c.cores}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "asymsim:", err)
		return 2, true
	}
	c.out, _ = textOut(*c.metricsOut) // one output cannot clash
	if *c.list {
		for _, e := range asymfence.Experiments() {
			fmt.Printf("  %-9s %s\n", e.ID, e.Description)
		}
		return 0, true
	}
	switch {
	case c.fs.NArg() == 2 && c.fs.Arg(0) == "run":
		c.id = "run " + c.fs.Arg(1)
		jobs, err := runJobs(c.fs.Arg(1), *c.cores, *c.scale, *c.horizon)
		if err != nil {
			fmt.Fprintln(os.Stderr, "asymsim:", err)
			return 2, true
		}
		c.target = func(ctx context.Context, cfg asymfence.RunConfig) error {
			ms, err := asymfence.RunBatch(ctx, jobs, cfg)
			if err == nil {
				printRun(c.out, c.fs.Arg(1), *c.cores, ms)
			}
			return err
		}
	case c.fs.NArg() == 1:
		c.id = c.fs.Arg(0)
		exp, ok := asymfence.LookupExperiment(c.id)
		if !ok {
			fmt.Fprintf(os.Stderr, "asymsim: unknown experiment %q (valid: %v; see -list)\n",
				c.id, asymfence.ExperimentIDs)
			return 2, true
		}
		c.target = func(ctx context.Context, cfg asymfence.RunConfig) error {
			tables, err := exp.Run(ctx, asymfence.Options{
				RunConfig: cfg, Cores: *c.cores, Scale: *c.scale, Horizon: *c.horizon,
			})
			for _, t := range tables {
				if *c.md {
					fmt.Fprintln(c.out, t.Markdown())
				} else {
					fmt.Fprintln(c.out, t.String())
				}
			}
			return err
		}
	default:
		c.fs.Usage()
		return 2, true
	}
	return 0, false
}

// run executes the parsed target: it opens the store, runs every job
// through one RunConfig (progress to stderr unless -q; counters into a
// registry when -metrics is set), then writes the -metrics snapshot and
// a job summary line to stderr. It returns the exit code.
func (c *experimentCmd) run(ctx context.Context) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "asymsim:", err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	reg := newCLIMetrics(*c.metricsOut)
	var stats asymfence.RunStats
	cfg := asymfence.RunConfig{Jobs: *c.jobs, Stats: &stats, Metrics: reg}
	if *c.seq {
		cfg.Jobs = 1
	}
	if !*c.quiet {
		cfg.Progress = os.Stderr
	}
	if *c.storeDir != "" {
		st, err := asymfence.OpenStore(*c.storeDir, asymfence.StoreOptions{Metrics: reg})
		if err != nil {
			return fail(err)
		}
		cfg.Store = st
	}
	start := time.Now()
	if err := c.target(ctx, cfg); err != nil {
		return fail(err)
	}
	if err := writeOutput(*c.metricsOut, reg.WriteJSON); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "asymsim: %s: %d jobs (%d simulated, %d cache hits, %d store hits) in %s\n",
		c.id, stats.Jobs, stats.Simulated, stats.CacheHits, stats.StoreHits, time.Since(start).Round(time.Millisecond))
	return 0
}
