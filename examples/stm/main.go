// Software transactional memory: the paper's §4.2 use case. TLRW read and
// write barriers each write a lock flag, fence, and read the other side's
// flags (paper Fig. 5b). Reads outnumber writes ~3.5x, so the asymmetric
// designs weaken the read barrier's fence and keep the write barrier's
// strong; W+ weakens all of them and wins the most.
//
// This example measures transactional throughput of three RSTM
// microbenchmarks under every design, then demonstrates the lost-update
// SC violation the fences prevent.
package main

import (
	"context"
	"fmt"

	"asymfence"
	"asymfence/internal/fence"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/stats"
	"asymfence/internal/workloads/stm"
)

func main() {
	fmt.Println("TLRW software transactional memory (paper §4.2), 8 cores")
	fmt.Println()
	apps := []string{"List", "ReadNWrite1", "ReadWriteN"}
	designs := []asymfence.Design{asymfence.SPlus, asymfence.WSPlus, asymfence.WPlus, asymfence.Wee}
	var jobs []asymfence.SimJob
	for _, app := range apps {
		for _, d := range designs {
			jobs = append(jobs, asymfence.SimJob{Group: "ustm", App: app, Design: d, Cores: 8, Horizon: 60_000})
		}
	}
	ms, err := asymfence.RunBatch(context.Background(), jobs, asymfence.RunConfig{})
	if err != nil {
		panic(err)
	}
	for i, m := range ms {
		if i%len(designs) == 0 {
			fmt.Printf("%s:\n", m.App)
		}
		base := ms[i-i%len(designs)].Throughput() // S+ leads each app's block
		fmt.Printf("  %-4v  throughput=%.2fx  commits=%-5d  fence stall=%4.1f%%  aborts=%d  W+ recoveries=%d\n",
			m.Design, m.Throughput()/base, m.Commits, 100*m.FenceStall,
			m.Agg.Events[stats.EvAbort], m.Agg.Recoveries)
	}

	// Show what the fences are for: without them the reader/writer flag
	// handshake loses updates. The workload is one hot counter (the
	// shape of ustm's Counter) built with the barrier fences left out.
	fmt.Println("\nWithout the barrier fences (TSO store→load reordering exposed):")
	p := stm.Profile{Name: "Counter", Locations: 8, ReadsPerTxn: 1, WritesPerTxn: 1, TxnWork: 20, BetweenWork: 600, Iterations: 300}
	al := mem.NewAllocator(0x1000)
	store := mem.NewStore()
	wl := stm.Build(p, 4, stm.Assignment{NoFences: true}, 7, al, store, nil)
	m, err := sim.New(sim.Config{NCores: 4, Design: fence.SPlus, WarmRegions: wl.WarmRegions}, wl.Progs, store)
	if err != nil {
		panic(err)
	}
	res, err := m.Run()
	if err != nil {
		panic(err)
	}
	var sum uint64
	for i := 0; i < p.Locations; i++ {
		sum += uint64(store.Load(wl.Layout.DataAddr(i)))
	}
	want := res.Agg().Events[stats.EvWriteCommit] * uint64(p.WritesPerTxn)
	fmt.Printf("  committed increments: %d, counter total: %d", want, sum)
	if sum != want {
		fmt.Printf("   <-- %d updates LOST to the SC violation\n", want-sum)
	} else {
		fmt.Println("   (the race did not materialize this run)")
	}
}
