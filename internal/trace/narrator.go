package trace

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Narrator is the harness-side progress channel: experiment runners use
// it to surface per-job progress (done/total, cache hits, elapsed
// wall-clock) while a batch of simulations executes. Like the Tracer, a
// nil *Narrator is valid and silent, so callers hold one
// unconditionally; unlike the Tracer it is safe for concurrent use —
// worker-pool goroutines report through the same Narrator.
type Narrator struct {
	mu    sync.Mutex
	w     io.Writer
	start time.Time
}

// NewNarrator builds a narrator writing to w. A nil writer yields a nil
// (silent) narrator.
func NewNarrator(w io.Writer) *Narrator {
	if w == nil {
		return nil
	}
	return &Narrator{w: w, start: time.Now()}
}

// Say emits one progress line, prefixed with the wall-clock elapsed
// since the narrator was created. Each line reaches w in one Write under
// the narrator's mutex, so goroutines sharing a narrator never
// interleave mid-line.
func (n *Narrator) Say(format string, args ...any) {
	if n == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	fmt.Fprintf(n.w, "[%7.2fs] %s\n", time.Since(n.start).Seconds(), fmt.Sprintf(format, args...))
}

// Elapsed returns the wall-clock time since the narrator was created
// (zero for a nil narrator).
func (n *Narrator) Elapsed() time.Duration {
	if n == nil {
		return 0
	}
	return time.Since(n.start)
}
