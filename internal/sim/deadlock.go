package sim

import (
	"fmt"
	"strings"

	"asymfence/internal/trace"
)

// CoreDump is one unfinished core's state at deadlock detection time.
type CoreDump struct {
	ID    int
	State string // cpu.(*Core).DebugState() rendering
}

// DirPending summarizes one directory module's in-flight transaction
// state at deadlock detection time. All banks are reported, including
// idle ones, so a watchdog report shows where the machine's open
// transactions are concentrated without rerunning under trace.
type DirPending struct {
	// Bank is the directory module / mesh node id.
	Bank int
	// BusyLines is the number of lines with an open transaction.
	BusyLines int
	// Queued is the total number of requests deferred behind busy lines.
	Queued int
	// Timers is the number of armed storage-latency timers.
	Timers int
}

// DeadlockError is the error Machine.Run returns when the watchdog
// fires: no core retired an instruction for Config.WatchdogCycles. It
// wraps ErrDeadlock (errors.Is(err, ErrDeadlock) holds) and carries a
// full diagnostic snapshot: every unfinished core's pipeline state,
// each directory module's open transactions, and the mesh occupancy.
type DeadlockError struct {
	// Cycle is when the watchdog fired.
	Cycle int64
	// Cores holds the unfinished cores' states, in core-id order.
	Cores []CoreDump
	// Dirs holds the per-module summaries of modules with in-flight
	// work, in bank order.
	Dirs []string
	// DirPending holds every directory module's pending-transaction
	// counts, in bank order (all banks, including idle ones).
	DirPending []DirPending
	// NoCInFlight is the number of packets still in the mesh.
	NoCInFlight int
	// WBDepths is every core's write-buffer occupancy, by core id (all
	// cores, not just the stuck ones).
	WBDepths []int
	// Tail is the last events of the machine's event buffer before the
	// watchdog fired, oldest-first (Tracer.Tail): every class from the
	// flight recorder when tracing is off, the traced classes when on.
	Tail []trace.Event
}

// Error renders the full diagnostic report.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at cycle %d: %d core(s) unfinished, %d packet(s) in flight",
		e.Cycle, len(e.Cores), e.NoCInFlight)
	if len(e.WBDepths) > 0 {
		b.WriteString("\nwb depths:")
		for id, depth := range e.WBDepths {
			fmt.Fprintf(&b, " core%d=%d", id, depth)
		}
	}
	if len(e.DirPending) > 0 {
		b.WriteString("\ndir pending:")
		for _, dp := range e.DirPending {
			fmt.Fprintf(&b, " bank%d={busy:%d queued:%d timers:%d}",
				dp.Bank, dp.BusyLines, dp.Queued, dp.Timers)
		}
	}
	for _, c := range e.Cores {
		b.WriteString("\n")
		b.WriteString(strings.TrimRight(c.State, "\n"))
	}
	for _, d := range e.Dirs {
		b.WriteString("\n")
		b.WriteString(d)
	}
	if tail := trace.FormatTail(e.Tail); tail != "" {
		b.WriteString("\n")
		b.WriteString(tail)
	}
	return b.String()
}

// Unwrap makes errors.Is(err, ErrDeadlock) work on the typed error.
func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// deadlockError snapshots the stuck machine.
func (m *Machine) deadlockError() *DeadlockError {
	e := &DeadlockError{
		Cycle:       m.cycle,
		NoCInFlight: m.mesh.InFlight(),
		Tail:        m.tr.Tail(),
	}
	for i, c := range m.cores {
		e.WBDepths = append(e.WBDepths, c.WBDepth())
		if !c.Finished() || c.Pending() {
			e.Cores = append(e.Cores, CoreDump{ID: i, State: c.DebugState()})
		}
	}
	for i, d := range m.dirs {
		busy, queued, timers := d.PendingCounts()
		e.DirPending = append(e.DirPending, DirPending{
			Bank: i, BusyLines: busy, Queued: queued, Timers: timers,
		})
		if d.Pending() {
			e.Dirs = append(e.Dirs, d.DebugState())
		}
	}
	return e
}
