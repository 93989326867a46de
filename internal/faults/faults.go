// Package faults is a seeded, deterministic timing-fault injector for
// the simulator. It perturbs *timing only* — NoC packet delay jitter,
// directory occupancy stretch, and write-buffer drain stalls — so every
// run under fault injection must still produce architecturally-correct
// results; any deviation is a real bug for the invariant oracle
// (internal/check) to catch.
//
// Determinism: every decision is a pure function of (seed, fault kind,
// per-kind draw counter) via a splitmix64 hash. The injector is driven
// only from the single-threaded cycle loop, so the counters advance in a
// machine-deterministic order and a fixed seed reproduces the exact same
// fault schedule. A nil *Injector is valid and injects nothing.
package faults

// Config selects fault rates and magnitudes. A probability field P means
// "1 in P draws fire"; zero disables that fault kind entirely.
type Config struct {
	// NoCJitterProb is the 1-in-N probability that a NoC packet send is
	// delayed. Zero disables NoC jitter.
	NoCJitterProb uint64
	// NoCJitterMax is the maximum extra cycles added to a jittered
	// packet (the delay is uniform in [1, NoCJitterMax]).
	NoCJitterMax int64
	// DirStretchProb is the 1-in-N probability that a directory access
	// has its occupancy stretched. Zero disables directory stretch.
	DirStretchProb uint64
	// DirStretchMax is the maximum extra cycles added to a stretched
	// directory access.
	DirStretchMax int64
	// WBStallProb is the 1-in-N probability that a write-buffer head
	// drain attempt is stalled. Zero disables drain stalls.
	WBStallProb uint64
	// WBStallMax is the maximum extra cycles a stalled drain waits.
	WBStallMax int64
}

// Default returns a moderately aggressive fault mix, the one RunConform's
// fault-injected simulator schedules use: roughly 1 in 8 packets
// jittered up to 12 cycles, 1 in 6 directory accesses stretched up to
// 20 cycles, and 1 in 10 drain attempts stalled up to 15 cycles.
func Default() Config {
	return Config{
		NoCJitterProb: 8, NoCJitterMax: 12,
		DirStretchProb: 6, DirStretchMax: 20,
		WBStallProb: 10, WBStallMax: 15,
	}
}

// kind constants salt the hash so the three fault streams are
// independent even though they share one seed.
const (
	kindNoC uint64 = 0x9e3779b97f4a7c15
	kindDir uint64 = 0xbf58476d1ce4e5b9
	kindWB  uint64 = 0x94d049bb133111eb
)

// Injector draws deterministic fault decisions. Construct with New;
// attach via sim.Config.Faults. Not safe for concurrent use — it is
// owned by one machine's cycle loop.
type Injector struct {
	cfg  Config
	seed uint64

	nocCtr uint64
	dirCtr uint64
	wbCtr  uint64
}

// New builds an injector with the given seed and fault mix.
func New(seed uint64, cfg Config) *Injector {
	return &Injector{cfg: cfg, seed: seed}
}

// SplitMix64 is the standard splitmix64 finalizer — a high-quality
// 64-bit mix used as a stateless hash of (seed, kind, counter), and
// exported as the repository's one stateless decision hash.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw hashes one fault decision, a pure function of (seed, kind, ctr):
// it fires one time in prob (never when prob is 0), with a magnitude in
// [1, max], or 0 when max <= 0. The simulator's timing faults and the
// store's write faults both draw through it.
func draw(seed, kind, ctr, prob uint64, max int64) (bool, int64) {
	if prob == 0 {
		return false, 0
	}
	h := SplitMix64(seed ^ kind ^ SplitMix64(ctr^kind))
	if h%prob != 0 {
		return false, 0
	}
	if max <= 0 {
		return true, 0
	}
	return true, 1 + int64((h>>32)%uint64(max))
}

// NoCDelay returns the extra cycles to add to a packet from src to dst
// of the given size (0 for most packets). Nil-safe.
func (in *Injector) NoCDelay(src, dst, size int) int64 {
	if in == nil {
		return 0
	}
	in.nocCtr++
	_, _ = src, dst
	_, d := draw(in.seed, kindNoC, in.nocCtr, in.cfg.NoCJitterProb, in.cfg.NoCJitterMax)
	return d
}

// DirDelay returns the extra occupancy cycles for one directory access
// at the given bank (0 for most accesses). Nil-safe.
func (in *Injector) DirDelay(bank int) int64 {
	if in == nil {
		return 0
	}
	in.dirCtr++
	_ = bank
	_, d := draw(in.seed, kindDir, in.dirCtr, in.cfg.DirStretchProb, in.cfg.DirStretchMax)
	return d
}

// WBDelay returns the extra cycles a write-buffer head drain attempt on
// the given core must wait before proceeding (0 for most attempts).
// Nil-safe.
func (in *Injector) WBDelay(core int) int64 {
	if in == nil {
		return 0
	}
	in.wbCtr++
	_ = core
	_, d := draw(in.seed, kindWB, in.wbCtr, in.cfg.WBStallProb, in.cfg.WBStallMax)
	return d
}
