package asymruntime

import (
	"fmt"
	"sync/atomic"

	"asymfence/internal/faults"
)

// Syscall fault seam. Every membarrier syscall the runtime issues goes
// through the *Syscall wrappers below, which consult an optionally
// installed FaultInjector first — the same seeded, counter-indexed,
// deterministic-decision pattern as internal/faults, adapted to a
// concurrent caller population: each decision is a pure function of
// (seed, draw counter), and the counter is a process-global atomic, so
// a fixed seed yields the same multiset of faults even though the
// goroutine that observes each one may vary run to run.
//
// The seam exists so the torture tests of runtime/thedeque and
// runtime/tlrw, each with its own FaultConfig, can prove the
// degradation story on real schedules: membarrier returning EINTR
// mid-run, turning persistently unavailable mid-run, or being denied at
// probe/registration time, all while the deque's and the lock's
// invariants are asserted under -race.

// FaultConfig selects syscall-fault rates for the membarrier seam. A
// probability field P means "1 in P draws fire"; zero disables that
// fault kind. The zero value injects nothing.
type FaultConfig struct {
	// EINTRProb is the 1-in-N probability that a membarrier fence call
	// returns a transient EINTR (HeavyFence retries these, bounded by
	// maxEINTRRetries).
	EINTRProb uint64
	// FailAfter makes every membarrier fence call after the first N
	// fail persistently (as a seccomp filter installed mid-flight
	// would), forcing HeavyFence to degrade the process to the fallback
	// path mid-run. Zero never fails.
	FailAfter uint64
	// DenyProbe makes Supported() report false while installed, as on a
	// pre-4.14 kernel or a seccomp profile filtering the syscall.
	DenyProbe bool
	// DenyRegister makes registration fail while installed (kernels
	// where QUERY succeeds but the register command is filtered).
	DenyRegister bool
}

// FaultInjector draws deterministic syscall-fault decisions. Construct
// with NewFaultInjector, install with InjectFaults. Safe for concurrent
// use, unlike the simulator's single-threaded injector.
type FaultInjector struct {
	cfg      FaultConfig
	seed     uint64
	fenceCtr atomic.Uint64
}

// NewFaultInjector builds an injector with the given seed and mix.
func NewFaultInjector(seed uint64, cfg FaultConfig) *FaultInjector {
	return &FaultInjector{cfg: cfg, seed: seed}
}

// FenceCalls returns how many membarrier fence draws the injector has
// seen (successful or faulted).
func (f *FaultInjector) FenceCalls() uint64 { return f.fenceCtr.Load() }

// installedFaults is the active injector; nil means no injection.
var installedFaults atomic.Pointer[FaultInjector]

// InjectFaults installs a syscall fault injector (nil uninstalls).
// Intended for tests; do not leave an injector installed around
// production fences.
func InjectFaults(f *FaultInjector) { installedFaults.Store(f) }

// injectedFault is an error produced by the seam rather than the
// kernel. transient mirrors EINTR semantics: retry may succeed.
type injectedFault struct {
	transient bool
	msg       string
}

func (e *injectedFault) Error() string { return e.msg }

var (
	errInjectedEINTR = &injectedFault{transient: true,
		msg: "asymruntime: injected EINTR"}
	errInjectedFail = &injectedFault{
		msg: "asymruntime: injected persistent membarrier failure"}
	errInjectedDeny = &injectedFault{
		msg: "asymruntime: injected registration denial"}
)

// transientFault reports whether err is worth a bounded retry: a real
// EINTR from the kernel or the injected equivalent.
func transientFault(err error) bool {
	if e, ok := err.(*injectedFault); ok {
		return e.transient
	}
	return errnoIsEINTR(err)
}

// fenceFault draws one fence-call decision; nil means the real syscall
// proceeds.
func (f *FaultInjector) fenceFault() error {
	n := f.fenceCtr.Add(1)
	if f.cfg.FailAfter > 0 && n > f.cfg.FailAfter {
		return errInjectedFail
	}
	if f.cfg.EINTRProb > 0 && faults.SplitMix64(f.seed^faults.SplitMix64(n))%f.cfg.EINTRProb == 0 {
		return errInjectedEINTR
	}
	return nil
}

// probeSyscall wraps the availability probe with the DenyProbe fault.
// The real probe result stays cached in probeOnce; denial is applied
// dynamically so installing/uninstalling an injector needs no reset.
func probeSyscall() bool {
	if f := installedFaults.Load(); f != nil && f.cfg.DenyProbe {
		return false
	}
	probeOnce.Do(func() { probedOK = membarrierProbe() })
	return probedOK
}

// registerSyscall wraps registration with the DenyRegister fault.
func registerSyscall() error {
	if f := installedFaults.Load(); f != nil && f.cfg.DenyRegister {
		return fmt.Errorf("%w", errInjectedDeny)
	}
	return membarrierRegister()
}

// fenceSyscall wraps the private expedited fence with the EINTR and
// persistent-failure faults.
func fenceSyscall() error {
	if f := installedFaults.Load(); f != nil {
		if err := f.fenceFault(); err != nil {
			return err
		}
	}
	return membarrierFence()
}
