package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// chunkRecorder records each underlying Write call separately so tests
// can assert line atomicity.
type chunkRecorder struct {
	mu     sync.Mutex
	chunks []string
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.chunks = append(c.chunks, string(p))
	c.mu.Unlock()
	return len(p), nil
}

// TestNarratorNoMidLineInterleave hammers one Narrator from many
// goroutines (the runner's progress-stream shape) and asserts every
// underlying Write is one whole line from a single goroutine. Run under
// -race this also checks the locking.
func TestNarratorNoMidLineInterleave(t *testing.T) {
	var cr chunkRecorder
	n := NewNarrator(&cr)
	const writers, lines = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				n.Say("worker=%d line=%d tag=%s", w, i, strings.Repeat("x", 1+i%13))
			}
		}(w)
	}
	wg.Wait()
	if len(cr.chunks) != writers*lines {
		t.Fatalf("saw %d writes, want one per line (%d)", len(cr.chunks), writers*lines)
	}
	for _, ch := range cr.chunks {
		_, line, ok := strings.Cut(ch, "] ")
		if !ok || !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
			t.Fatalf("write is not one whole narrator line: %q", ch)
		}
		var w, i int
		var tag string
		if _, err := fmt.Sscanf(line, "worker=%d line=%d tag=%s", &w, &i, &tag); err != nil {
			t.Fatalf("garbled line %q: %v", line, err)
		}
		if tag != strings.Repeat("x", 1+i%13) {
			t.Fatalf("line %q interleaved mid-line", line)
		}
	}
}
