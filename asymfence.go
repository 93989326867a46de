// Package asymfence is a from-scratch reproduction of "Asymmetric Memory
// Fences: Optimizing Both Performance and Implementability" (Duan,
// Honarmand, Torrellas — ASPLOS 2015) as a Go library.
//
// It provides:
//
//   - a cycle-level, execution-driven multicore simulator (out-of-order
//     cores with a 140-entry ROB and a TSO write buffer, private L1s, a
//     banked shared L2 with a full-map directory MESI protocol, and a 2D
//     mesh interconnect — the paper's Table 2 machine);
//   - the paper's five fence designs: conventional strong fences (S+),
//     the asymmetric weak-fence designs WS+, SW+ and W+, and the WeeFence
//     baseline with its global reorder table (Wee);
//   - the paper's three workload groups, written in a small simulated
//     ISA: Cilk-style work stealing (the THE protocol), a TLRW software
//     transactional memory (the RSTM ustm microbenchmarks and STAMP
//     application profiles), plus the Bakery and Dekker litmus programs;
//   - an experiment harness that regenerates every figure and table of
//     the paper's evaluation (Figs. 8-12, Table 4) through a typed
//     registry — see Experiments, LookupExperiment and Experiment.Run.
//
// # Quickstart
//
// Build a Dekker store-buffering litmus and watch the asymmetric fences
// prevent the SC violation while the weak-fence thread runs stall-free:
//
//	m, _ := asymfence.NewMachine(asymfence.Config{Cores: 4, Design: asymfence.WSPlus}, progs, store)
//	res, _ := m.Run()
//
// See examples/ for complete programs and DESIGN.md for the system
// inventory and modeling decisions.
package asymfence

import (
	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
)

// Design selects the machine-wide fence implementation (paper Table 1).
type Design = fence.Design

// The paper's design points.
const (
	// SPlus executes every fence as a conventional (strong) fence.
	SPlus = fence.SPlus
	// WSPlus supports asymmetric groups with at most one weak fence
	// (Bypass Set + Order operation).
	WSPlus = fence.WSPlus
	// SWPlus supports any asymmetric group (word-granular Bypass Set +
	// Conditional Order).
	SWPlus = fence.SWPlus
	// WPlus supports any group, including all-weak ones (checkpoint +
	// deadlock timeout + rollback).
	WPlus = fence.WPlus
	// Wee is the WeeFence baseline (Bypass Set + global reorder table +
	// the single-directory-module confinement rule).
	Wee = fence.Wee
)

// AllDesigns lists the designs in the paper's comparison order.
var AllDesigns = fence.AllDesigns

// Program is an assembled simulated-ISA thread program.
type Program = isa.Program

// NewProgram starts assembling a thread program; see the isa package's
// Builder methods (Ld/St/SFence/WFence/...).
func NewProgram(name string) *isa.Builder { return isa.NewBuilder(name) }

// Store is the machine's functional memory; pre-initialize workload data
// here before constructing a Machine.
type Store = mem.Store

// NewStore returns an empty functional memory (all words zero).
func NewStore() *Store { return mem.NewStore() }

// Allocator lays out simulated data structures.
type Allocator = mem.Allocator

// NewAllocator returns an allocator starting at base.
func NewAllocator(base uint32) *Allocator { return mem.NewAllocator(mem.Addr(base)) }

// Privacy marks shared address ranges for WeeFence's Private Access
// Filtering.
type Privacy = mem.Privacy

// NewPrivacy returns an empty privacy map (everything private).
func NewPrivacy() *Privacy { return mem.NewPrivacy() }

// Config describes a simulated machine. Zero fields take the paper's
// Table 2 defaults (8 cores, 140-entry ROB, 64-entry write buffer,
// 32 KB/4-way L1 at 2 cycles, 128 KB/8-way L2 banks at 11 cycles,
// 200-cycle memory, 2D mesh at 5 cycles/hop, 32-entry Bypass Sets).
type Config struct {
	// Cores is the core count (power of two, 4-32 in the paper).
	Cores int
	// Design selects the fence implementation.
	Design Design
	// Privacy enables WeeFence Private Access Filtering (optional).
	Privacy *Privacy
	// WarmRegions are preloaded into the shared L2 before cycle 0.
	WarmRegions []mem.Region
	// MaxCycles bounds Run (default 10M).
	MaxCycles int64
	// Metrics, when non-nil, receives the run's machine counters
	// (write-buffer occupancy, fence mix, NoC traffic, ...) under the
	// "machine" scope. Nil disables collection at zero cost.
	Metrics *MetricsRegistry
}

// Machine is a simulated multicore.
type Machine struct {
	m *sim.Machine
}

// Result summarizes a run; see the sim package for field documentation.
type Result = sim.Result

// ErrDeadlock is returned when the machine makes no retirement progress
// (e.g. an all-weak fence group under a design without recovery).
var ErrDeadlock = sim.ErrDeadlock

// DeadlockError is the typed error wrapping ErrDeadlock: it carries the
// deadlock cycle, every unfinished core's pipeline state, and the
// directory/mesh occupancy. Recover it with errors.As.
type DeadlockError = sim.DeadlockError

// NewMachine builds a machine running programs[i] on core i.
func NewMachine(cfg Config, programs []*Program, store *Store) (*Machine, error) {
	sc := sim.Config{
		NCores:      cfg.Cores,
		Design:      cfg.Design,
		MaxCycles:   cfg.MaxCycles,
		Privacy:     cfg.Privacy,
		WarmRegions: cfg.WarmRegions,
		Metrics:     cfg.Metrics,
	}
	m, err := sim.New(sc, programs, store)
	if err != nil {
		return nil, err
	}
	return &Machine{m: m}, nil
}

// Run executes until every thread halts (or deadlock/horizon).
func (m *Machine) Run() (*Result, error) { return m.m.Run() }

// RunFor executes exactly n cycles (throughput experiments).
func (m *Machine) RunFor(n int64) *Result { return m.m.RunFor(n) }

// Cycle returns the current simulated cycle.
func (m *Machine) Cycle() int64 { return m.m.Cycle() }

// Store returns the functional memory for result inspection.
func (m *Machine) Store() *Store { return m.m.Store() }

// Reg returns core i's architectural register r after the run.
func (m *Machine) Reg(core int, r uint8) uint32 { return m.m.Core(core).Reg(isa.Reg(r)) }
