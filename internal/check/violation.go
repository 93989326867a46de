package check

import (
	"fmt"
	"strings"

	"asymfence/internal/trace"
)

// ViolationError is the typed error every checker raises: which invariant
// failed, where, and the flight-recorder events leading up to it. The
// oracle latches the first violation of a run; Machine.Run returns it in
// place of the normal result error.
type ViolationError struct {
	// Checker names the failing checker: "tso", "coherence" or "fence".
	Checker string
	// Cycle is the simulation cycle the violation was detected at.
	Cycle int64
	// Core is the core the violation is attributed to (-1 for
	// machine-global invariants).
	Core int
	// Line is the cache-line or word address involved (0 when the
	// invariant has no address).
	Line uint64
	// Detail is the human-readable statement of the broken invariant.
	Detail string
	// Tail is the last events of the machine's event buffer at
	// detection time, oldest-first (Tracer.Tail). The simulator fills it
	// in even when tracing is off, from the flight recorder, so every
	// violation report ends with the events leading up to the failure.
	Tail []trace.Event
}

// Error renders the violation followed by the flight-recorder tail.
func (e *ViolationError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check: %s violation at cycle %d", e.Checker, e.Cycle)
	if e.Core >= 0 {
		fmt.Fprintf(&b, " (core %d", e.Core)
		if e.Line != 0 {
			fmt.Fprintf(&b, ", addr %#x", e.Line)
		}
		b.WriteString(")")
	} else if e.Line != 0 {
		fmt.Fprintf(&b, " (addr %#x)", e.Line)
	}
	b.WriteString(": ")
	b.WriteString(e.Detail)
	if tail := trace.FormatTail(e.Tail); tail != "" {
		b.WriteString("\n")
		b.WriteString(tail)
	}
	return b.String()
}
