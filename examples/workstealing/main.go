// Work stealing: the paper's §4.1 use case. The Cilk-5 THE protocol
// coordinates a deque owner's take() against thieves' steal() with a
// Dekker-style handshake containing one fence on each side. Since owners
// run take() for every task while stealing is rare (<0.5% of tasks), the
// asymmetric designs put a weak fence in take() and a strong fence in
// steal() — eliminating almost all of the owner's fence stall.
//
// This example runs the `fib` profile (the finest-grained CilkApps
// application) under each design and prints the execution time, cycle
// breakdown, and the work-stealing invariants.
package main

import (
	"context"
	"fmt"

	"asymfence"
	"asymfence/internal/stats"
)

func main() {
	fmt.Println("Cilk THE work stealing (paper §4.1), app=fib, 8 cores")
	fmt.Println()
	jobs := make([]asymfence.SimJob, len(asymfence.AllDesigns))
	for i, d := range asymfence.AllDesigns {
		jobs[i] = asymfence.SimJob{Group: "cilk", App: "fib", Design: d, Cores: 8, Scale: 0.5}
	}
	ms, err := asymfence.RunBatch(context.Background(), jobs, asymfence.RunConfig{})
	if err != nil {
		panic(err)
	}
	base := ms[0].Cycles // S+ leads AllDesigns
	for _, m := range ms {
		tasks := m.Agg.Events[stats.EvTask]
		steals := m.Agg.Events[stats.EvSteal]
		fmt.Printf("%-4v  time=%.2fx  busy=%4.1f%%  fence stall=%4.1f%%  tasks=%d  stolen=%.2f%%  wf=%d sf=%d\n",
			m.Design, float64(m.Cycles)/float64(base), 100*m.Busy, 100*m.FenceStall,
			tasks, 100*float64(steals)/float64(tasks), m.Agg.WFences, m.Agg.SFences)
	}
	fmt.Println()
	fmt.Println("Every task executes exactly once under every design: the fences prevent")
	fmt.Println("the double-execution SC violation of the THE handshake.")
}
