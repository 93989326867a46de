// Package asymruntime implements the paper's asymmetric fence split on
// real hardware: a near-free LightFence for the performance-critical
// side of a Dekker-style handshake, paired with a HeavyFence that makes
// every concurrently running thread's memory order globally consistent
// via the Linux membarrier(2) MEMBARRIER_CMD_PRIVATE_EXPEDITED syscall.
//
// This is the real-silicon recipe the simulated WS+/W+ designs model
// (see DESIGN.md §2): the hot side executes no store-buffer drain at
// all, and the rare side pays for it by interrupting every thread of
// the process. It is exactly the construction shipped by folly's
// AsymmetricThreadFence and userver's asymmetric_fence.cpp, and
// standardized as wg21 P1202 — see HARDWARE.md for the full recipe,
// the kernel/fallback support matrix, and the cross-validation story
// against the simulator's predictions.
//
// # Pairing contract
//
// A LightFence is only a fence when every conflicting observer issues a
// HeavyFence between its own Dekker store and load. When membarrier is
// unavailable (non-Linux, kernels before 4.14, seccomp filters denying
// the syscall) both sides degrade together to a symmetric seq-cst
// fence, so the pair is always correct; the asymmetric performance win
// simply disappears. The resolved path is process-global: use
// ASYMFENCE_MODE or Use to pin it, ReadStats/Active to observe it.
//
// Mode changes are safe at any time with respect to each individual
// fence, but an in-flight HeavyFence started under the fallback path
// does not retroactively cover LightFences issued after a switch to
// the membarrier path — call Use during startup (flag parsing, test
// setup), before the fences guard live data.
//
// # What Go can express
//
// Go's sync/atomic operations are sequentially consistent, so on
// x86-64 an atomic store already compiles to XCHG and carries its own
// StoreLoad barrier. LightFence therefore does not weaken the atomics
// around it; what it removes is the *additional* explicit symmetric
// fence (Cell.FullFence) that a conservative port targeting the
// abstract memory model — or the paper's S+ hardware — executes on the
// hot path. EXPERIMENTS.md ("Simulator vs. silicon") quantifies what
// survives this translation.
package asymruntime

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"

	"asymfence/internal/metrics"
)

// Mode selects how the light/heavy fence pair is implemented.
type Mode uint8

const (
	// ModeAuto resolves to ModeMembarrier when the kernel supports
	// private expedited membarrier, and to ModeFallback otherwise.
	ModeAuto Mode = iota
	// ModeMembarrier pins the asymmetric path: LightFence is free,
	// HeavyFence issues membarrier(2) MEMBARRIER_CMD_PRIVATE_EXPEDITED.
	ModeMembarrier
	// ModeFallback pins the symmetric degradation: both LightFence and
	// HeavyFence execute a seq-cst full fence. Always available.
	ModeFallback
)

// String returns the mode's ASYMFENCE_MODE spelling.
func (m Mode) String() string {
	switch m {
	case ModeMembarrier:
		return "membarrier"
	case ModeFallback:
		return "fallback"
	default:
		return "auto"
	}
}

// ParseMode maps a mode's spelling back to the Mode: "membarrier",
// "fallback", and "auto" or the empty string for ModeAuto. ok is false
// for any other spelling.
func ParseMode(s string) (m Mode, ok bool) {
	switch s {
	case "", "auto":
		return ModeAuto, true
	case "membarrier":
		return ModeMembarrier, true
	case "fallback":
		return ModeFallback, true
	default:
		return ModeAuto, false
	}
}

// ErrUnsupported is returned by Use(ModeMembarrier) when the membarrier
// syscall is unavailable on this platform, kernel or seccomp profile.
var ErrUnsupported = errors.New("asymruntime: membarrier private expedited unsupported on this platform")

// Resolved fence paths. pathUnresolved forces the first fence (or Use
// call) through resolve(), which probes and registers membarrier.
const (
	pathUnresolved uint32 = iota
	pathMembarrier
	pathFallback
)

var (
	// activePath is read on every LightFence: a single atomic load.
	activePath atomic.Uint32

	// modeMu serializes resolution, registration and mode changes.
	modeMu     sync.Mutex
	requested  Mode // what the env var / last Use asked for
	registered bool // REGISTER_PRIVATE_EXPEDITED issued this process

	// probeOnce caches the availability query (side-effect free).
	probeOnce sync.Once
	probedOK  bool

	// Counters surfaced by ReadStats and Export. Heavy fences are rare
	// by construction, so per-call atomics are fine; light fences are
	// deliberately not counted per call.
	statHeavyMembarrier atomic.Int64
	statHeavyFallback   atomic.Int64
	statFallbackActive  atomic.Int64 // times resolve() chose the fallback path
	statEINTRRetries    atomic.Int64 // transient membarrier failures retried
	statDegradations    atomic.Int64 // mid-run membarrier→fallback degradations

	// fallbackCell is the process-wide cell behind the package-level
	// FullFence and the degraded light/heavy paths. Degraded fences are
	// symmetric anyway, so sharing one cell is acceptable; hot-path
	// baseline fences should use a role-private Cell instead.
	fallbackCell Cell
)

func init() {
	// An unrecognized ASYMFENCE_MODE means auto, which ParseMode
	// returns alongside its false.
	requested, _ = ParseMode(os.Getenv("ASYMFENCE_MODE"))
	if requested == ModeFallback {
		activePath.Store(pathFallback)
		statFallbackActive.Add(1)
	}
}

// Supported reports whether the private expedited membarrier commands
// are available here (Linux ≥ 4.14 with CONFIG_MEMBARRIER, syscall not
// filtered). The probe is issued once and cached; it does not register.
func Supported() bool {
	return probeSyscall()
}

// resolve returns the active fence path, probing and registering
// membarrier on first need.
func resolve() uint32 {
	if p := activePath.Load(); p != pathUnresolved {
		return p
	}
	modeMu.Lock()
	defer modeMu.Unlock()
	return resolveLocked()
}

func resolveLocked() uint32 {
	if p := activePath.Load(); p != pathUnresolved {
		return p
	}
	p := pathFallback
	if requested != ModeFallback && Supported() && registerLocked() {
		p = pathMembarrier
	}
	if p == pathFallback {
		statFallbackActive.Add(1)
	}
	activePath.Store(p)
	return p
}

// registerLocked issues REGISTER_PRIVATE_EXPEDITED once per process.
// Registration is per-mm, so one successful call covers every M the Go
// scheduler will ever run goroutines on. Called with modeMu held.
func registerLocked() bool {
	if registered {
		return true
	}
	if registerSyscall() != nil {
		return false
	}
	registered = true
	return true
}

// Use pins the fence implementation. Use(ModeMembarrier) returns
// ErrUnsupported (leaving the current path untouched) when the syscall
// is unavailable; Use(ModeAuto) re-resolves immediately. See the
// package comment for when mode changes are safe.
func Use(m Mode) error {
	modeMu.Lock()
	defer modeMu.Unlock()
	switch m {
	case ModeFallback:
		requested = m
		if activePath.Load() != pathFallback {
			statFallbackActive.Add(1)
		}
		activePath.Store(pathFallback)
		return nil
	case ModeMembarrier:
		if !Supported() || !registerLocked() {
			return ErrUnsupported
		}
		requested = m
		activePath.Store(pathMembarrier)
		return nil
	default:
		requested = ModeAuto
		activePath.Store(pathUnresolved)
		resolveLocked()
		return nil
	}
}

// Active returns the resolved fence path — ModeMembarrier or
// ModeFallback — resolving it first if no fence has executed yet.
func Active() Mode {
	if resolve() == pathMembarrier {
		return ModeMembarrier
	}
	return ModeFallback
}

// LightFence is the hot side of the asymmetric pair. On the membarrier
// path it costs one atomic load and a predictable branch: the ordering
// obligation has been shifted entirely onto the HeavyFence side. On the
// fallback path it strengthens to a full seq-cst fence so the pair
// stays symmetric and correct.
func LightFence() {
	if activePath.Load() == pathMembarrier {
		return
	}
	lightSlow()
}

//go:noinline
func lightSlow() {
	if resolve() == pathMembarrier {
		return
	}
	fallbackCell.FullFence()
}

// HeavyFence is the rare side of the asymmetric pair: it orders this
// goroutine's prior Dekker store against its subsequent load *and*
// guarantees that every concurrently running thread's program order is
// observed consistently — either the peer's earlier store is visible to
// us, or our store is visible to the peer's later load. On the
// membarrier path that costs one syscall that IPIs every thread of the
// process (microseconds); on the fallback path it is a seq-cst fence.
func HeavyFence() {
	if resolve() == pathMembarrier && heavyMembarrier() {
		return
	}
	fallbackCell.FullFence()
	statHeavyFallback.Add(1)
}

// maxEINTRRetries bounds transient-failure retries of one HeavyFence
// before it treats the failure as persistent and degrades.
const maxEINTRRetries = 8

// heavyMembarrier issues the membarrier fence with bounded EINTR retry.
// The kernel contract is that PRIVATE_EXPEDITED cannot fail after
// successful registration; if it does anyway (a seccomp filter
// installed mid-flight, or an injected fault), the process degrades to
// the fallback path — activePath flips first, so every later
// LightFence strengthens to a full fence, and then the caller issues a
// full fence itself. The degradation window is the failing HeavyFence
// call: LightFences concurrent with it ran on the free path without a
// membarrier covering them. Go's sync/atomic operations are seq-cst on
// their own (see "What Go can express" above), so the window weakens
// only the *additional* cross-thread ordering the explicit fence pair
// supplies; the torture tests in thedeque/tlrw assert the ported
// workloads' invariants survive it. Callers that cannot tolerate the
// window can watch Stats.Degradations.
func heavyMembarrier() bool {
	var err error
	for attempt := 0; ; attempt++ {
		err = fenceSyscall()
		if err == nil {
			statHeavyMembarrier.Add(1)
			return true
		}
		if !transientFault(err) || attempt >= maxEINTRRetries {
			break
		}
		statEINTRRetries.Add(1)
	}
	degrade()
	return false
}

// degrade pins the process to the fallback path after a persistent
// membarrier failure. requested is left alone: an explicit Use call can
// still re-arm the membarrier path if the syscall recovers.
func degrade() {
	modeMu.Lock()
	if activePath.Load() == pathMembarrier {
		activePath.Store(pathFallback)
		statFallbackActive.Add(1)
		statDegradations.Add(1)
	}
	modeMu.Unlock()
}

// Cell is a cache-line-isolated word for symmetric full fences. The
// symmetric baselines of the ported workloads give each fencing role
// its own Cell so the baseline pays for a store-buffer drain, not for
// artificial cache-line ping-pong on a shared fence word.
type Cell struct {
	_ [64]byte
	v atomic.Int64
	_ [56]byte
}

// FullFence executes a symmetric sequentially consistent fence: a
// seq-cst read-modify-write on the cell (LOCK XADD on x86-64, LDADDAL
// on arm64), which orders all prior stores before all later loads.
// This is the per-fence-point cost the paper's S+ design models.
func (c *Cell) FullFence() {
	c.v.Add(0)
}

// FullFence executes a symmetric seq-cst fence on a process-wide cell.
// Convenience for cold paths; hot baseline paths should fence a
// role-private Cell.
func FullFence() {
	fallbackCell.FullFence()
}

// Stats is a snapshot of the runtime's fence accounting.
type Stats struct {
	// Active is the resolved path (ModeMembarrier or ModeFallback), or
	// ModeAuto when no fence has resolved it yet.
	Active Mode
	// Supported reports the cached membarrier availability probe; false
	// also before any probe ran.
	Supported bool
	// Registered reports whether REGISTER_PRIVATE_EXPEDITED succeeded.
	Registered bool
	// HeavyMembarrier counts HeavyFence calls served by membarrier(2).
	HeavyMembarrier int64
	// HeavyFallback counts HeavyFence calls served by the seq-cst
	// fallback fence.
	HeavyFallback int64
	// FallbackActivations counts the times the fallback path was
	// (re-)activated: unavailable syscall, ASYMFENCE_MODE=fallback,
	// Use(ModeFallback), or a mid-run degradation.
	FallbackActivations int64
	// EINTRRetries counts transient membarrier failures that HeavyFence
	// retried.
	EINTRRetries int64
	// Degradations counts mid-run membarrier→fallback degradations
	// caused by persistent membarrier failure after registration.
	Degradations int64
}

// ReadStats returns the current fence accounting without resolving the
// path (so it is safe to call before any fence has run). The path and
// registration flag are read under one modeMu hold — every writer of
// either (Use, resolve, degrade) holds modeMu — so the snapshot is
// never torn: Active == ModeMembarrier implies Registered.
func ReadStats() Stats {
	s := Stats{
		HeavyMembarrier:     statHeavyMembarrier.Load(),
		HeavyFallback:       statHeavyFallback.Load(),
		FallbackActivations: statFallbackActive.Load(),
		EINTRRetries:        statEINTRRetries.Load(),
		Degradations:        statDegradations.Load(),
	}
	modeMu.Lock()
	p := activePath.Load()
	s.Registered = registered
	modeMu.Unlock()
	switch p {
	case pathMembarrier:
		s.Active = ModeMembarrier
	case pathFallback:
		s.Active = ModeFallback
	default:
		s.Active = ModeAuto
	}
	s.Supported = Supported()
	return s
}

// Export snapshots the fence accounting into the registry's "runtime"
// scope (runtime.heavy.membarrier, runtime.heavy.fallback,
// runtime.fallback.activations, runtime.heavy.eintr_retries and
// runtime.degradations counters; runtime.registered and
// runtime.supported gauges), the same deterministic JSON snapshot
// every other subsystem reports through (OBSERVABILITY.md).
// Nil-safe: a nil registry is ignored.
func Export(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	st := ReadStats()
	sc := reg.Scope("runtime")
	sc.Counter("heavy.membarrier").Add(st.HeavyMembarrier)
	sc.Counter("heavy.fallback").Add(st.HeavyFallback)
	sc.Counter("fallback.activations").Add(st.FallbackActivations)
	sc.Counter("heavy.eintr_retries").Add(st.EINTRRetries)
	sc.Counter("degradations").Add(st.Degradations)
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	sc.Gauge("registered").Set(b2i(st.Registered))
	sc.Gauge("supported").Set(b2i(st.Supported))
}
