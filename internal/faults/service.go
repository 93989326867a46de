package faults

import (
	"fmt"
	"os"
	"sync/atomic"
	"syscall"
)

// This file extends the seed-deterministic fault discipline from the
// simulator's timing faults to the disk: write faults for the
// measurement store's persistence primitive. Unlike the cycle-loop
// injector above, these may be drawn from concurrent goroutines, so
// their draw counter is atomic; a fixed seed still produces a fixed
// fault schedule *per draw index* (the set of faults injected is
// reproducible even though goroutine interleaving may assign them to
// writes in varying order).

// Write-fault kind salts, continuing the simulator kinds above.
const (
	kindFSWrite uint64 = 0xd6e8feb86659fd93
	kindFSTorn  uint64 = 0xa5a5a5a5deadbeef
	kindFSNoSpc uint64 = 0xc2b2ae3d27d4eb4f
)

// FSConfig selects write-fault rates for a WriteFaults injector. Each
// probability field P means "1 in P draws fire"; zero disables that
// fault kind.
type FSConfig struct {
	// WriteErrProb is the 1-in-N probability that a write fails with a
	// generic injected I/O error (nothing reaches the disk).
	WriteErrProb uint64
	// TornProb is the 1-in-N probability that a write tears: only a
	// prefix of the data lands at the destination path, bypassing the
	// tmp+rename discipline, and the write still reports success — the
	// torn-file case readers must degrade on.
	TornProb uint64
	// ENOSPCProb is the 1-in-N probability that a write fails with
	// syscall.ENOSPC (disk full).
	ENOSPCProb uint64
}

// DefaultFS returns the store fault suite's write-fault mix: 1 in 4
// writes torn, 1 in 5 erroring, 1 in 7 reporting a full disk.
func DefaultFS() FSConfig {
	return FSConfig{WriteErrProb: 5, TornProb: 4, ENOSPCProb: 7}
}

// WriteFaults is a deterministic fault-injecting wrapper around a
// store-style atomic write function (store.WriteFileAtomic). Safe for concurrent use. A nil *WriteFaults injects
// nothing.
type WriteFaults struct {
	cfg  FSConfig
	seed uint64
	ctr  atomic.Uint64
}

// NewWriteFaults builds a write-fault injector with the given seed and
// mix.
func NewWriteFaults(seed uint64, cfg FSConfig) *WriteFaults {
	return &WriteFaults{cfg: cfg, seed: seed}
}

// Wrap returns a write function that behaves like next except when a
// fault fires: the write errors, reports ENOSPC, or tears (a prefix of
// data lands at path non-atomically and the call still succeeds).
// Nil-safe: a nil injector returns next unchanged.
func (w *WriteFaults) Wrap(next func(path string, data []byte) error) func(path string, data []byte) error {
	if w == nil {
		return next
	}
	return func(path string, data []byte) error {
		ctr := w.ctr.Add(1)
		if fires, _ := draw(w.seed, kindFSNoSpc, ctr, w.cfg.ENOSPCProb, 0); fires {
			return fmt.Errorf("faults: injected write of %s: %w", path, syscall.ENOSPC)
		}
		if fires, _ := draw(w.seed, kindFSWrite, ctr, w.cfg.WriteErrProb, 0); fires {
			return fmt.Errorf("faults: injected write error on %s", path)
		}
		if fires, cut := draw(w.seed, kindFSTorn, ctr, w.cfg.TornProb, int64(len(data))); fires && len(data) > 0 {
			// Torn write: a prefix lands at the final path with no rename
			// barrier, and the caller is told it worked — the lie a crash
			// mid-write tells. Readers must treat the result as corrupt.
			os.WriteFile(path, data[:cut-1], 0o666)
			return nil
		}
		return next(path, data)
	}
}
