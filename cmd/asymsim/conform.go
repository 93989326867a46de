package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"asymfence"
	"asymfence/internal/buildinfo"
	"asymfence/internal/fence"
	asymruntime "asymfence/runtime"
)

// conformFile is the asymsim conform JSON report layout (schema
// asymfence-conform/v1). Everything in it is deterministic for a fixed
// flag set on a fixed host/build — no timestamps, no hardware-coverage
// data — so a re-run diffs clean (the conformance analogue of the
// fuzzer's byte-reproducible reproducers).
type conformFile struct {
	Schema  string                   `json:"schema"`
	Command string                   `json:"command"`
	Host    hwHost                   `json:"host"`
	Config  conformConfig            `json:"config"`
	Report  *asymfence.ConformReport `json:"report"`
}

// hwHost is the hardware/kernel provenance of a report.
type hwHost struct {
	GOOS     string `json:"goos"`
	GOARCH   string `json:"goarch"`
	NCPU     int    `json:"ncpu"`
	Go       string `json:"go"`
	Kernel   string `json:"kernel,omitempty"`
	CPU      string `json:"cpu,omitempty"`
	Version  string `json:"version,omitempty"`
	Revision string `json:"revision,omitempty"`
}

// procLine reads a one-line pseudo-file, returning "" off-Linux or on
// error — host provenance is best-effort.
func procLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// cpuModel extracts the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// modeFromString maps a -modes entry to an asymruntime.Mode; ok is
// false for unrecognized values so a typo fails loudly instead of
// silently running in auto mode.
func modeFromString(s string) (asymruntime.Mode, bool) {
	switch s {
	case "auto", "":
		return asymruntime.ModeAuto, true
	case "membarrier":
		return asymruntime.ModeMembarrier, true
	case "fallback":
		return asymruntime.ModeFallback, true
	default:
		return asymruntime.ModeAuto, false
	}
}

// conformConfig records the resolved campaign shape.
type conformConfig struct {
	Seeds      int      `json:"seeds"`
	StartSeed  uint64   `json:"start_seed"`
	Cores      int      `json:"cores"` // 0 = per-seed 2/4 alternation
	Ops        int      `json:"ops_per_core"`
	Schedules  int      `json:"schedules"`
	Iterations int      `json:"hw_iterations_per_mode"`
	Designs    []string `json:"designs"`
	Modes      []string `json:"modes"`
}

// conformCmd handles `asymsim conform`: the cross-domain litmus
// conformance sweep (ROBUSTNESS.md §8). Each seed's generated program
// group is enumerated on the reference TSO machine, swept through the
// cycle simulator under every design with fault-injected schedules, and
// executed as real goroutines under every available fence mode; any
// final state outside its allowed closure is a minimized, reported
// conformance violation. A clean campaign exits 0; a violation exits 1.
func conformCmd(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("asymsim conform", flag.ExitOnError)
	seeds := fs.Int("seeds", 200, "number of generator seeds to check")
	start := fs.Uint64("start", 1, "first seed (shards compose)")
	cores := fs.Int("cores", 0, "thread count (0 = vary 2/4 per seed)")
	ops := fs.Int("ops", 0, "operations per generated thread (0 = shape default)")
	schedules := fs.Int("schedules", 4, "simulator schedule variants per design (variant 0 is fault-free)")
	iters := fs.Int("iters", 128, "real-goroutine executions per seed per fence mode")
	modeFlag := fs.String("modes", "", "comma-separated hardware fence modes (default: fallback,membarrier where supported)")
	quick := fs.Bool("quick", false, "quick sweep: 50 seeds, 2 schedules, 32 iterations (explicit flags still win)")
	reportOut := fs.String("report", "", "write the asymfence-conform/v1 JSON report to this file (\"-\" = stdout)")
	quiet := fs.Bool("q", false, "suppress per-seed progress lines on stderr")
	metricsOut := fs.String("metrics", "", "write the campaign's metrics snapshot to this file as JSON (\"-\" = stdout)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: asymsim conform [flags]\n\nflags:\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *quick {
		// -quick rescales only the defaults; explicitly set flags win.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["seeds"] {
			*seeds = 50
		}
		if !set["schedules"] {
			*schedules = 2
		}
		if !set["iters"] {
			*iters = 32
		}
	}

	var modes []asymruntime.Mode
	if *modeFlag != "" {
		for _, s := range strings.Split(*modeFlag, ",") {
			m, ok := modeFromString(strings.TrimSpace(s))
			if !ok {
				fmt.Fprintf(os.Stderr, "asymsim conform: unknown mode %q\n", s)
				return 2
			}
			modes = append(modes, m)
		}
	}

	reg := newCLIMetrics(*metricsOut)
	opts := asymfence.ConformOptions{
		RunConfig:  asymfence.RunConfig{Metrics: reg},
		Seeds:      *seeds,
		StartSeed:  *start,
		Cores:      *cores,
		OpsPerCore: *ops,
		Schedules:  *schedules,
		Iterations: *iters,
		Modes:      modes,
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}

	startT := time.Now()
	rep, err := asymfence.RunConform(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asymsim conform:", err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	if err := writeMetrics(reg, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "asymsim conform:", err)
		return 1
	}
	if err := writeConformReport(rep, opts, *reportOut); err != nil {
		fmt.Fprintln(os.Stderr, "asymsim conform:", err)
		return 1
	}
	// With -report - the JSON owns stdout; prose moves to stderr.
	out := io.Writer(os.Stdout)
	if *reportOut == "-" {
		out = os.Stderr
	}
	if rep.Violation != nil {
		fmt.Fprintln(out, rep.Violation.Error())
		for _, p := range rep.Violation.Programs {
			fmt.Fprintln(out, p)
		}
		fmt.Fprintf(os.Stderr, "asymsim conform: FAIL: violation after %d seed(s) in %s\n",
			rep.Seeds, time.Since(startT).Round(time.Millisecond))
		return 1
	}
	fmt.Fprintf(out, "conform: %d seed(s) (%d skipped), %d sim run(s), %d hw iteration(s), modes %s: no conformance violations\n",
		rep.Seeds, rep.SeedsSkipped, rep.SimRuns, rep.HWIterations, strings.Join(rep.ModesRun, "+"))
	fmt.Fprintf(os.Stderr, "asymsim conform: clean in %s\n", time.Since(startT).Round(time.Millisecond))
	return 0
}

// writeConformReport serializes the asymfence-conform/v1 file ("" skips,
// "-" writes to stdout).
func writeConformReport(rep *asymfence.ConformReport, opts asymfence.ConformOptions, path string) error {
	if path == "" {
		return nil
	}
	bi := buildinfo.Get()
	file := conformFile{
		Schema:  "asymfence-conform/v1",
		Command: "asymsim conform",
		Host: hwHost{
			GOOS:     runtime.GOOS,
			GOARCH:   runtime.GOARCH,
			NCPU:     runtime.NumCPU(),
			Go:       runtime.Version(),
			Kernel:   procLine("/proc/sys/kernel/osrelease"),
			CPU:      cpuModel(),
			Version:  bi.Version,
			Revision: bi.Revision,
		},
		Config: conformConfig{
			Seeds:      opts.Seeds,
			StartSeed:  opts.StartSeed,
			Cores:      opts.Cores,
			Ops:        opts.OpsPerCore,
			Schedules:  opts.Schedules,
			Iterations: opts.Iterations,
			Modes:      rep.ModesRun,
		},
		Report: rep,
	}
	for _, d := range fence.AllDesigns {
		file.Config.Designs = append(file.Config.Designs, d.String())
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(b)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if _, err := bw.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
