package asymfence

import (
	"context"
	"errors"
	"fmt"
	"io"

	"asymfence/internal/check"
	"asymfence/internal/faults"
	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/tso"
	"asymfence/internal/workloads/litmus"
	"asymfence/runtime"
	"asymfence/runtime/litmusrun"
)

// Cross-domain litmus conformance (ROBUSTNESS.md §8): for each
// generated litmus program the reference TSO machine enumerates the
// reachable final states, and then both execution domains are checked
// against that ground truth:
//
//   - every cycle-simulator final state (swept across designs and
//     fault-injected schedules, always under the invariant oracle) must
//     lie inside its design's closure: the *strong* one for S+, which
//     runs every fence strong, and the *relaxed* one for the asymmetric
//     designs — the weakest reading they are allowed to exhibit (weak
//     fences may be silently skipped, paper §3.3.1);
//   - every real-goroutine final state (runtime/litmusrun, swept across
//     fence modes) must lie inside the *strong* closure — Go's
//     sync/atomic is sequentially consistent and SC refines TSO with
//     every fence draining.
//
// A seed too large to enumerate is not thrown away: its simulator sweep
// still runs under the oracle, and only the closure checks and the
// hardware sweep are left out. An outcome outside its closure, or an
// oracle violation, is a conformance violation: either a fence design,
// the runtime's fence pairing, or the oracle itself is wrong.
// Violations are minimized by nop-substitution before reporting.

// ConformOptions configures RunConform. Zero fields take defaults; the
// zero value is a usable quick configuration.
type ConformOptions struct {
	// Progress, when non-nil, receives one line per clean seed, ending
	// in hw=<distinct>/<strong>, sim=<distinct>/<relaxed> when it had
	// closures: the distinct hardware outcomes over all modes against
	// the strong closure's size, and the distinct simulator outcomes
	// over all designs and schedules against the relaxed closure's size.
	// Neither enters the report.
	Progress io.Writer
	// Metrics, when non-nil, receives the simulator runs' machine
	// counters and the campaign counters (under "conform").
	Metrics *MetricsRegistry

	// Seeds is how many generator seeds to check (default 25).
	Seeds int
	// StartSeed is the first seed (default 1); the campaign covers
	// StartSeed..StartSeed+Seeds-1, so shards compose.
	StartSeed uint64
	// Cores fixes the thread count; 0 alternates 2 (most seeds) and 4
	// (every fourth seed).
	Cores int
	// OpsPerCore bounds each generated thread (0 = 8 for two-core
	// seeds, 5 for four-core seeds — small enough to enumerate
	// exhaustively).
	OpsPerCore int
	// Schedules is how many simulator schedule variants run per design:
	// variant 0 is fault-free, the rest use distinct fault-injector
	// seeds for timing diversity (default 4).
	Schedules int
	// Iterations is how many real-goroutine executions run per seed and
	// fence mode (default 128).
	Iterations int
	// MaxStates caps the TSO enumeration per seed; seeds whose state
	// space exceeds it are counted in SeedsSkipped and checked under the
	// invariant oracle only, never against an incomplete closure
	// (default tso.DefaultMaxStates).
	MaxStates int
	// Modes selects the hardware fence modes (default fallback plus
	// membarrier when the host supports it). Unsupported modes are
	// skipped, not errors, so one config runs everywhere.
	Modes []asymruntime.Mode
}

// ConformViolation is one outcome observed outside its allowed closure,
// with a minimized reproducer.
type ConformViolation struct {
	// Seed is the generator seed of the offending program group.
	Seed uint64 `json:"seed"`
	// Domain identifies the executor: "sim/<design>/s<variant>",
	// "hardware/<mode>", or "sim-oracle/<design>/s<variant>" when the
	// runtime invariant checker fired inside the simulator.
	Domain string `json:"domain"`
	// Outcome is the canonical key of the disallowed final state (empty
	// for sim-oracle violations, which carry Detail instead).
	Outcome string `json:"outcome,omitempty"`
	// Allowed is the size of the closure the outcome fell outside.
	Allowed int `json:"allowed,omitempty"`
	// Detail carries the oracle's message for sim-oracle violations.
	Detail string `json:"detail,omitempty"`
	// Programs is the minimized program group (disassembly), one entry
	// per core.
	Programs []string `json:"programs"`
}

// Error formats the violation for CLI output.
func (v *ConformViolation) Error() string {
	if v.Detail != "" {
		return fmt.Sprintf("conform: seed %d %s: %s", v.Seed, v.Domain, v.Detail)
	}
	return fmt.Sprintf("conform: seed %d %s: outcome %q outside the %d allowed final states",
		v.Seed, v.Domain, v.Outcome, v.Allowed)
}

// ConformSeedResult is the deterministic per-seed summary carried by
// the report. Everything here is a pure function of the configuration:
// closure sizes come from the enumerator and sim outcome counts from
// the deterministic simulator, so a fixed config reproduces the report
// byte for byte. Hardware coverage is deliberately absent — which
// subset of the closure real schedules visit varies run to run.
type ConformSeedResult struct {
	Seed    uint64 `json:"seed"`
	Cores   int    `json:"cores"`
	Ops     int    `json:"ops_per_core"`
	Strong  int    `json:"strong_outcomes"`
	Relaxed int    `json:"relaxed_outcomes"`
	States  int    `json:"tso_states"`
	// SimOutcomes maps design name to the number of distinct final
	// states the schedule sweep observed.
	SimOutcomes map[string]int `json:"sim_outcomes,omitempty"`
	// Skipped marks a seed whose enumeration exceeded MaxStates: its
	// simulator sweep ran under the invariant oracle only, with no
	// closure check and no hardware sweep. When the strong closure
	// overflowed, the relaxed one was not enumerated (Relaxed and
	// States are 0).
	Skipped bool `json:"skipped,omitempty"`
}

// ConformReport summarizes a RunConform campaign.
type ConformReport struct {
	// Seeds is the number of seeds exercised.
	Seeds int `json:"seeds"`
	// SeedsSkipped counts seeds whose enumeration exceeded MaxStates
	// and were checked under the invariant oracle only.
	SeedsSkipped int `json:"seeds_skipped"`
	// SimRuns is the number of simulator executions (seeds × designs ×
	// schedules), excluding minimization reruns.
	SimRuns int `json:"sim_runs"`
	// HWIterations is the number of real-goroutine executions.
	HWIterations int `json:"hw_iterations"`
	// ModesRun lists the hardware modes actually exercised.
	ModesRun []string `json:"modes_run"`
	// PerSeed carries the deterministic per-seed summaries.
	PerSeed []ConformSeedResult `json:"per_seed"`
	// Violation is the first conformance violation found, minimized;
	// nil for a clean campaign.
	Violation *ConformViolation `json:"violation,omitempty"`
}

// conformModes resolves the hardware mode list against host support.
func conformModes(req []asymruntime.Mode) []asymruntime.Mode {
	if len(req) == 0 {
		req = []asymruntime.Mode{asymruntime.ModeFallback, asymruntime.ModeMembarrier}
	}
	var out []asymruntime.Mode
	for _, m := range req {
		if m == asymruntime.ModeMembarrier && !asymruntime.Supported() {
			continue
		}
		if m == asymruntime.ModeAuto {
			m = asymruntime.Active()
		}
		out = append(out, m)
	}
	return out
}

// Validate reports a campaign shape RunConform refuses to generate: a
// nonzero Cores that the simulator cannot build (sim.Config.Validate),
// or a negative OpsPerCore.
func (o ConformOptions) Validate() error {
	if o.Cores != 0 {
		if err := (sim.Config{NCores: o.Cores}).Validate(); err != nil {
			return err
		}
	}
	if o.OpsPerCore < 0 {
		return fmt.Errorf("operations per core must not be negative, got %d", o.OpsPerCore)
	}
	return nil
}

// RunConform runs the cross-domain conformance campaign. It stops at
// the first violation (minimized, attached to the report); a non-nil
// error reports an invalid shape (Validate, with no report) or an
// infrastructure failure, not a violation. The hardware sweep pins the
// global fence mode per litmusrun call and leaves the runtime in auto
// mode on return.
func RunConform(ctx context.Context, opts ConformOptions) (*ConformReport, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Seeds == 0 {
		opts.Seeds = 25
	}
	if opts.StartSeed == 0 {
		opts.StartSeed = 1
	}
	if opts.Schedules <= 0 {
		opts.Schedules = 4
	}
	if opts.Iterations <= 0 {
		opts.Iterations = 128
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = tso.DefaultMaxStates
	}
	modes := conformModes(opts.Modes)
	defer func() { _ = asymruntime.Use(asymruntime.ModeAuto) }()

	rep := &ConformReport{}
	defer exportConformMetrics(rep, opts.Metrics)
	for _, m := range modes {
		rep.ModesRun = append(rep.ModesRun, m.String())
	}

	for s := 0; s < opts.Seeds; s++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		seed := opts.StartSeed + uint64(s)
		cores, ops := conformShape(seed, opts)
		al := mem.NewAllocator(0x1000)
		g := litmus.Generate(al, litmus.GenConfig{
			Seed: seed, NCores: cores, OpsPerCore: ops, SharedLines: 1,
		})
		sr := ConformSeedResult{Seed: seed, Cores: g.NCores, Ops: ops}

		strong, err := tso.Enumerate(g.Programs, g.Shared, tso.Config{Semantics: tso.Strong, MaxStates: opts.MaxStates})
		if err != nil {
			return rep, fmt.Errorf("conform: seed %d: %w", seed, err)
		}
		// A seed whose strong closure overflows is skipped whatever the
		// relaxed one does, so the relaxed enumeration is not attempted.
		var relaxed tso.Result
		if strong.Complete {
			relaxed, err = tso.Enumerate(g.Programs, g.Shared, tso.Config{Semantics: tso.Relaxed, MaxStates: opts.MaxStates})
			if err != nil {
				return rep, fmt.Errorf("conform: seed %d: %w", seed, err)
			}
		}
		sr.Strong, sr.Relaxed, sr.States = len(strong.Outcomes), len(relaxed.Outcomes), relaxed.States
		if !strong.Complete || !relaxed.Complete {
			sr.Skipped = true
			rep.SeedsSkipped++
		}

		// Simulator sweep: designs × fault-seeded schedules under the
		// invariant oracle, each outcome checked against the design's
		// closure when the seed has one. simAll, the outcomes over all
		// designs, is kept only for the progress line.
		sr.SimOutcomes = make(map[string]int)
		var simAll litmus.OutcomeSet
		if opts.Progress != nil {
			simAll = litmus.NewOutcomeSet()
		}
		for _, d := range fence.AllDesigns {
			closure := relaxed
			if simSemantics(d) == tso.Strong {
				closure = strong
			}
			distinct := litmus.NewOutcomeSet()
			for v := 0; v < opts.Schedules; v++ {
				rep.SimRuns++
				o, cv, err := conformSimRun(ctx, seed, v, d, g, g.Programs, opts)
				if err != nil {
					return rep, fmt.Errorf("conform: seed %d design %s: %w", seed, d, err)
				}
				if cv != nil {
					rep.Violation = minimizeConform(ctx, seed, fmt.Sprintf("sim-oracle/%s/s%d", d, v), "", 0, g,
						func(c context.Context, cand []*isa.Program) bool {
							_, mcv, merr := conformSimRun(c, seed, v, d, g, cand, opts)
							return merr == nil && mcv != nil
						})
					rep.Violation.Detail = cv.Error()
					rep.Seeds = s + 1
					return rep, nil
				}
				k := o.Key()
				distinct.AddKey(k)
				if !sr.Skipped && !closure.Outcomes.Has(k) {
					rep.Violation = minimizeConform(ctx, seed, fmt.Sprintf("sim/%s/s%d", d, v), k, len(closure.Outcomes), g,
						func(c context.Context, cand []*isa.Program) bool {
							return simEscapes(c, seed, v, d, g, cand, opts)
						})
					rep.Seeds = s + 1
					return rep, nil
				}
			}
			sr.SimOutcomes[d.String()] = len(distinct)
			if simAll != nil {
				simAll.Union(distinct)
			}
		}
		if sr.Skipped {
			rep.PerSeed = append(rep.PerSeed, sr)
			rep.Seeds = s + 1
			if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "conform: seed %d ok under the oracle only (%d cores, closure over the %d-state cap, %d sim runs)\n",
					seed, g.NCores, opts.MaxStates, len(fence.AllDesigns)*opts.Schedules)
			}
			continue
		}

		// Hardware sweep: real goroutines per fence mode, checked
		// against the strong closure.
		hw := litmus.NewOutcomeSet()
		for mi, m := range modes {
			if err := asymruntime.Use(m); err != nil {
				return rep, fmt.Errorf("conform: seed %d mode %s: %w", seed, m, err)
			}
			res, err := litmusrun.Run(g.Programs, g.Shared, litmusrun.Config{
				Iterations: opts.Iterations,
				Seed:       faults.SplitMix64(seed ^ uint64(mi)<<32),
			})
			rep.HWIterations += res.Iterations
			if err != nil {
				return rep, fmt.Errorf("conform: seed %d mode %s: %w", seed, m, err)
			}
			hw.Union(res.Outcomes)
			for _, k := range res.Outcomes.Keys() {
				if strong.Outcomes.Has(k) {
					continue
				}
				rep.Violation = minimizeConform(ctx, seed, "hardware/"+m.String(), k, len(strong.Outcomes), g,
					func(c context.Context, cand []*isa.Program) bool {
						return hwEscapesStrong(seed, uint64(mi), cand, g.Shared, opts)
					})
				rep.Seeds = s + 1
				return rep, nil
			}
		}

		rep.PerSeed = append(rep.PerSeed, sr)
		rep.Seeds = s + 1
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "conform: seed %d ok (%d cores, strong=%d relaxed=%d, %d sim runs, hw=%d/%d, sim=%d/%d)\n",
				seed, g.NCores, sr.Strong, sr.Relaxed, len(fence.AllDesigns)*opts.Schedules, len(hw), sr.Strong, len(simAll), sr.Relaxed)
		}
	}
	return rep, nil
}

// conformShape derives the generator shape for a seed: mostly 2-core
// programs with a deeper opcount, every fourth seed 4-core with a
// shallower one so the enumeration stays exhaustive.
func conformShape(seed uint64, opts ConformOptions) (cores, ops int) {
	cores = opts.Cores
	if cores == 0 {
		cores = 2
		if seed%4 == 0 {
			cores = 4
		}
	}
	ops = opts.OpsPerCore
	if ops == 0 {
		ops = 8
		if cores >= 4 {
			ops = 5
		}
	}
	return cores, ops
}

// conformSimRun executes one (seed, schedule variant, design) instance
// in the cycle simulator with the invariant oracle enabled and returns
// the final-state outcome. Variant 0 is fault-free; higher variants use
// distinct fault-injector seeds for timing diversity.
func conformSimRun(ctx context.Context, seed uint64, variant int, d fence.Design,
	g litmus.GenResult, progs []*isa.Program, opts ConformOptions) (litmus.Outcome, *check.ViolationError, error) {

	store := mem.NewStore()
	words := int(g.Shared.Size / mem.WordSize)
	for i := 0; i < words; i++ {
		store.StoreWord(g.Shared.Base+mem.Addr(i)*mem.WordSize, litmus.InitWord(i))
	}
	pv := mem.NewPrivacy()
	pv.MarkRegion(g.Shared)
	var inj *faults.Injector
	if variant > 0 {
		inj = faults.New(faults.SplitMix64(seed^uint64(variant)), faults.Default())
	}
	m, err := sim.New(sim.Config{
		NCores:  g.NCores,
		Design:  d,
		Privacy: pv,
		Checker: check.New(check.All()),
		Faults:  inj,
		Metrics: opts.Metrics,
	}, progs, store)
	if err != nil {
		return litmus.Outcome{}, nil, err
	}
	if _, err := m.RunCtx(ctx); err != nil {
		var v *check.ViolationError
		if errors.As(err, &v) {
			return litmus.Outcome{}, v, nil
		}
		return litmus.Outcome{}, nil, err
	}
	o := litmus.ExtractOutcome(g.NCores, g.Shared,
		func(t int, r isa.Reg) uint32 { return m.Core(t).Reg(r) },
		m.Store().Load,
		m.Store().ForEach)
	return o, nil, nil
}

// simSemantics is the closure a design's simulated outcomes are held
// to: S+ runs every fence strong, so it promises the strong closure;
// the asymmetric designs may legally skip unpaired weak fences (paper
// §3.3.1), so they are held to the relaxed one.
func simSemantics(d fence.Design) tso.Semantics {
	if d == fence.SPlus {
		return tso.Strong
	}
	return tso.Relaxed
}

// simEscapes reports whether the candidate programs, run under the same
// (seed, variant, design) schedule, produce an outcome outside their
// own closure for that design — the keep predicate for minimizing a sim
// conformance violation. Incomplete enumerations reject the candidate.
func simEscapes(ctx context.Context, seed uint64, variant int, d fence.Design,
	g litmus.GenResult, cand []*isa.Program, opts ConformOptions) bool {

	closure, err := tso.Enumerate(cand, g.Shared, tso.Config{Semantics: simSemantics(d), MaxStates: opts.MaxStates})
	if err != nil || !closure.Complete {
		return false
	}
	o, cv, err := conformSimRun(ctx, seed, variant, d, g, cand, opts)
	if err != nil || cv != nil {
		return false
	}
	return !closure.Outcomes.Has(o.Key())
}

// hwEscapesStrong reports whether the candidate programs still produce
// a real-goroutine outcome outside their own strong closure — the keep
// predicate for minimizing a hardware conformance violation. The mode
// is already pinned by the caller.
func hwEscapesStrong(seed, modeIdx uint64, cand []*isa.Program, shared mem.Region, opts ConformOptions) bool {
	strong, err := tso.Enumerate(cand, shared, tso.Config{Semantics: tso.Strong, MaxStates: opts.MaxStates})
	if err != nil || !strong.Complete {
		return false
	}
	res, err := litmusrun.Run(cand, shared, litmusrun.Config{
		Iterations: opts.Iterations,
		Seed:       faults.SplitMix64(seed ^ modeIdx<<32),
	})
	if err != nil {
		return false
	}
	for _, k := range res.Outcomes.Keys() {
		if !strong.Outcomes.Has(k) {
			return true
		}
	}
	return false
}

// minimizeConform shrinks a violating instance with the shared
// nop-substitution minimizer and assembles the violation record.
func minimizeConform(ctx context.Context, seed uint64, domain, outcome string, allowed int,
	g litmus.GenResult, keep func(context.Context, []*isa.Program) bool) *ConformViolation {

	progs := minimizeProgs(ctx, g.Programs, keep)
	v := &ConformViolation{Seed: seed, Domain: domain, Outcome: outcome, Allowed: allowed}
	for _, p := range progs {
		v.Programs = append(v.Programs, p.String())
	}
	return v
}

// exportConformMetrics snapshots the campaign counters into the
// "conform" scope. Nil-safe.
func exportConformMetrics(rep *ConformReport, reg *MetricsRegistry) {
	if reg == nil {
		return
	}
	sc := reg.Scope("conform")
	sc.Counter("seeds").Add(int64(rep.Seeds))
	sc.Counter("seeds.skipped").Add(int64(rep.SeedsSkipped))
	sc.Counter("sim.runs").Add(int64(rep.SimRuns))
	sc.Counter("hw.iterations").Add(int64(rep.HWIterations))
	if rep.Violation != nil {
		sc.Counter("violations").Add(1)
	}
}
