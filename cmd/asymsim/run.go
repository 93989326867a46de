package main

import (
	"fmt"
	"io"
	"strings"

	"asymfence"
)

// runDesigns are the designs `asymsim run` compares, in print order.
var runDesigns = asymfence.AllDesigns

// runJobs builds the jobs of `asymsim run <group>:<app>`: one per
// design, executed as one parallel batch whose submission order fixes
// the printout order.
func runJobs(spec string, cores int, scale float64, horizon int64) ([]asymfence.SimJob, error) {
	group, app, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("workload spec must be <group>:<app>, e.g. cilk:fib (groups: %s)",
			strings.Join(asymfence.WorkloadGroups, ", "))
	}
	jobs := make([]asymfence.SimJob, len(runDesigns))
	for i, d := range runDesigns {
		jobs[i] = asymfence.SimJob{
			Group: group, App: app, Design: d,
			Cores: cores, Scale: scale, Horizon: horizon,
		}
	}
	return jobs, nil
}

// printRun prints the measurements of runJobs' batch to w: the cycle
// breakdown and the fence-site stall profile of each design.
func printRun(w io.Writer, spec string, cores int, ms []*asymfence.WorkloadMeasurement) {
	fmt.Fprintf(w, "%s under each design (%d cores):\n\n", spec, cores)
	for i, d := range runDesigns {
		m := ms[i]
		fmt.Fprintf(w, "%-8s cycles=%-8d txn/Mcyc=%-8.0f busy=%5.1f%%  other=%5.1f%%  fence=%5.1f%%  sf=%d wf=%d recov=%d\n",
			d, m.Cycles, m.Throughput(), 100*m.Busy, 100*m.OtherStall, 100*m.FenceStall,
			m.Agg.SFences, m.Agg.WFences, m.Agg.Recoveries)
		if top := m.Agg.TopFenceSites(3); len(top) > 0 && m.Agg.FenceStallCycles > 0 {
			fmt.Fprintf(w, "         top fence-stall sites (pc: cycles):")
			for _, site := range top {
				fmt.Fprintf(w, "  %d: %d", site.PC, site.Cycles)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "\n(pc values index the workload's disassembly; the fence-site profile")
	fmt.Fprintln(w, " shows which fence — take/steal, read/write/commit barrier — pays the stall)")
}
