package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"

	"asymfence/internal/buildinfo"
)

// recordSchema names the record-file layout.
const recordSchema = "asymfence-bench/v2"

// recordFile is a set of benchmark runs of one commit on one host, as
// -record writes it and -compare reads it.
type recordFile struct {
	Schema string      `json:"schema"`
	Host   host        `json:"host"`
	Runs   []runRecord `json:"runs"`
}

// runRecord is one run: its arguments and its result line.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// host is the provenance of a record file.
type host struct {
	NCPU     int    `json:"ncpu"`
	GOOS     string `json:"goos"`
	GOARCH   string `json:"goarch"`
	Go       string `json:"go"`
	Kernel   string `json:"kernel,omitempty"`
	CPU      string `json:"cpu,omitempty"`
	Revision string `json:"revision,omitempty"`
}

func currentHost() host {
	h := host{NCPU: runtime.NumCPU(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Go: runtime.Version(),
		Revision: buildinfo.Get().Revision}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// appendRecord adds one run to the record file at path, creating it with
// this host's provenance if it does not exist.
func appendRecord(path string, rec runRecord) error {
	f, err := readRecords(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &recordFile{Schema: recordSchema, Host: currentHost()}, nil
	}
	if err != nil {
		return err
	}
	if h := currentHost(); h != f.Host {
		fmt.Fprintf(os.Stderr, "bench: %s was recorded on another host or commit (%+v)\n", path, f.Host)
	}
	f.Runs = append(f.Runs, rec)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecords(path string) (*recordFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f recordFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != recordSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, recordSchema)
	}
	return &f, nil
}

// spec is the part of BENCHMARK.json -compare needs.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// working directory or its parent.
func loadSpec() (*spec, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// seedValue is one run's value of one metric.
type seedValue struct {
	seed uint64
	v    float64
}

// valuesOf collects a metric's values on a workload, from traced or
// untraced runs.
func valuesOf(f *recordFile, workload, metric string, traced bool) []seedValue {
	var out []seedValue
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, seedValue{r.Seed, m.Value})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].seed < out[j].seed })
	return out
}

func allZero(sv []seedValue) bool {
	for _, s := range sv {
		if s.v != 0 {
			return false
		}
	}
	return true
}

func justValues(sv []seedValue) []float64 {
	out := make([]float64, len(sv))
	for i, s := range sv {
		out[i] = s.v
	}
	return out
}

// verdict judges the change cur against the parent base on one
// end-to-end metric (the rule of the choosing-metrics guide, §6-8):
//   - worse: the change's median is worse than the parent's by more than
//     bound, a share of the parent's median;
//   - unresolved: the parent's own spread (its interquartile range) is
//     wider than the bound, unless every run of the change reads better
//     than every run of the parent, which is improved;
//   - improved: over at least ten runs paired by seed, the change wins at
//     least nine pairs in ten and its median beats the parent's by more
//     than the parent's spread;
//   - unchanged otherwise.
func verdict(base, cur []seedValue, lowerBetter bool, bound float64) string {
	if len(base) == 0 || len(cur) == 0 {
		return "missing"
	}
	better := func(a, b float64) bool { return (lowerBetter && a < b) || (!lowerBetter && a > b) }
	bv, cv := justValues(base), justValues(cur)
	mb, mc := median(bv), median(cv)
	q1, _, q3 := quartiles(bv)
	spread := q3 - q1
	if spread > bound*math.Abs(mb) {
		worstCur, bestBase := slices.Max(cv), slices.Min(bv)
		if !lowerBetter {
			worstCur, bestBase = slices.Min(cv), slices.Max(bv)
		}
		if better(worstCur, bestBase) {
			return "improved"
		}
		return "unresolved"
	}
	worse := (mc - mb) / math.Abs(mb)
	if !lowerBetter {
		worse = -worse
	}
	if worse > bound {
		return "worse"
	}
	pairs, wins := min(len(base), len(cur)), 0
	for i := 0; i < pairs; i++ {
		if better(cur[i].v, base[i].v) {
			wins++
		}
	}
	if pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && better(mc, mb) && math.Abs(mc-mb) > spread {
		return "improved"
	}
	return "unchanged"
}

// compareMain implements -compare base.json new.json: for each workload
// and metric it prints the parent's and the change's median and
// quartiles and, for the bounded end-to-end metrics, a verdict. It exits
// 1 when any verdict is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare base.json new.json")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	base, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cur, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return printComparison(sp, base, cur)
}

func printComparison(sp *spec, base, cur *recordFile) int {
	quart := func(sv []seedValue) string {
		if len(sv) == 0 {
			return "-"
		}
		q1, q2, q3 := quartiles(justValues(sv))
		return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", q2, q1, q3, len(sv))
	}
	fmt.Printf("base: %s on %d cpus, %s\nnew:  %s on %d cpus, %s\n\n",
		base.Host.Revision, base.Host.NCPU, base.Host.CPU, cur.Host.Revision, cur.Host.NCPU, cur.Host.CPU)
	fmt.Printf("%-17s %-34s %-36s %-36s %8s  %s\n", "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "verdict")
	worse := 0
	row := func(w string, m specMetric, traced bool) {
		b, c := valuesOf(base, w, m.Name, traced), valuesOf(cur, w, m.Name, traced)
		if allZero(b) && allZero(c) {
			return // not measured, or a layer this workload never calls
		}
		change, v := "-", ""
		if mb := median(justValues(b)); len(b) > 0 && len(c) > 0 && mb != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(median(justValues(c))-mb)/math.Abs(mb))
		}
		if !traced {
			v = verdict(b, c, m.Better == "lower", m.Bound)
			if v == "worse" {
				worse++
			}
		}
		fmt.Printf("%-17s %-34s %-36s %-36s %8s  %s\n", w, m.Name+" ("+m.Unit+")", quart(b), quart(c), change, v)
	}
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			row(w.Name, m, false)
		}
	}
	fmt.Println()
	for _, w := range sp.Workloads {
		for _, m := range sp.PerLayer {
			row(w.Name, m, true)
		}
	}
	if worse > 0 {
		fmt.Printf("\n%d end-to-end metric(s) worse beyond their bound\n", worse)
		return 1
	}
	return 0
}
