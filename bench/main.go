// Command bench is the repository's benchmark. It drives one closed-loop
// workload per run against the public calls of asymfence's modules,
// checks every output against pinned references, and prints one JSON
// result line with every metric by name and unit:
//
//	bash bench/run.sh --workload suite --seed 1 --seconds 10 --trace 0
//
// From this directory, `go run . -workload suite -seed 1` does the same
// with the default Go build cache. -trace 1 makes a traced run, which
// reports the per-layer metrics instead and writes its spans as Chrome
// trace JSON; -record appends the result to a record file, and
// -compare tells whether one record file regressed against another.
// README.md describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() { os.Exit(benchMain()) }

func benchMain() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input seed (>= 1): the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured loop in seconds")
	traceArg := flag.String("trace", "0", "0: untraced run reporting end-to-end metrics; 1: traced run reporting per-layer metrics, spans written to .bench_build/spans-<workload>-<seed>.json; any other value: traced, spans written to that file")
	record := flag.String("record", "", "append the run's result to this record file")
	compare := flag.Bool("compare", false, "compare two record files instead of running: -compare base.json new.json")
	flag.Parse()
	if *compare {
		return compareMain(flag.Args())
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seed == 0 || *seconds < 0 || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: need -workload (one of %s), -seed >= 1 and -seconds >= 0\n", strings.Join(workloadNames(), ", "))
		flag.Usage()
		return 2
	}
	traced, spansPath := *traceArg != "0", *traceArg
	if *traceArg == "1" {
		spansPath = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
	}

	tmp, err := os.MkdirTemp("", "asymbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	r := newRun(context.Background(), *seed, time.Duration(*seconds)*time.Second, tmp, traced)
	r.execute(w.plan(r))
	res := r.result()

	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if traced {
		if err := r.tr.writeChrome(spansPath); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "bench: spans written to %s\n", spansPath)
	}
	if *record != "" {
		if err := appendRecord(*record, runRecord{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: traced, Result: res}); err != nil {
			fmt.Fprintln(os.Stderr, "bench: recording:", err)
			return 1
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
