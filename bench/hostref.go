package main

import (
	"slices"
	"time"
)

// The benchmark runs on shared machines whose speed drifts by up to
// ±20% over minutes (README.md, "Host noise"), far more than a bound of
// 0.25 leaves room for between two sets of runs made minutes apart. So
// an untraced run also times a fixed reference computation, which shares
// no code with the program, about every refPeriod of its loop, and
// reports every time scaled to the host speed at which the reference
// takes refNominal: t × refNominal / median(reference times).

// refNominal is the reference computation's median time on the host the
// bounds were measured on (README.md).
const refNominal = 20 * time.Millisecond

// refPeriod is how often the loop stops to time the reference.
const refPeriod = 500 * time.Millisecond

// hostRef times the reference computation: integer arithmetic, hashing
// into a map of 64Ki entries and sorting 128Ki words, about a third of
// the time each. It allocates only on its first use.
type hostRef struct {
	samples []float64 // seconds
	last    time.Time
	table   map[uint32]uint32
	words   []uint32
	sink    uint64
}

// sample times the reference computation once.
func (h *hostRef) sample() {
	if h.table == nil {
		h.table = make(map[uint32]uint32, 1<<16)
		h.words = make([]uint32, 1<<17)
	}
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 3_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	clear(h.table)
	y := uint32(x)
	for i := 0; i < 100_000; i++ {
		y = y*1664525 + 1013904223
		h.table[y>>16] += y
	}
	for i := range h.words {
		y = y*1664525 + 1013904223
		h.words[i] = y
	}
	slices.Sort(h.words)
	h.sink = x + uint64(len(h.table)) + uint64(h.words[len(h.words)/2])
	h.samples = append(h.samples, time.Since(t0).Seconds())
	h.last = time.Now()
}

// due reports whether refPeriod has passed since the last sample.
func (h *hostRef) due() bool { return time.Since(h.last) >= refPeriod }

// scale is the factor that takes a time measured on this run's host to
// the reference host: refNominal over the median reference time.
func (h *hostRef) scale() float64 {
	return refNominal.Seconds() / median(h.samples)
}
