package sim_test

import (
	"errors"
	"strings"
	"testing"

	"asymfence/internal/check"
	"asymfence/internal/cpu"
	"asymfence/internal/faults"
	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/workloads/litmus"
)

// runCheckedMachine runs progs under design with the full invariant
// oracle attached (and optionally the deterministic fault injector) and
// fails the test on any error — violation or otherwise.
func runCheckedMachine(t *testing.T, design fence.Design, ncores int,
	progs []*isa.Program, inj *faults.Injector) {
	t.Helper()
	all := make([]*isa.Program, ncores)
	for i := range all {
		if i < len(progs) {
			all[i] = progs[i]
		} else {
			all[i] = litmus.Idle()
		}
	}
	m, err := sim.New(sim.Config{
		NCores:  ncores,
		Design:  design,
		Checker: check.New(check.All()),
		Faults:  inj,
	}, all, mem.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("design %v with checkers: %v", design, err)
	}
}

// TestCheckersCleanOnLitmusSuite runs the hand-written litmus programs
// under every design with all three checkers enabled: the machine's TSO,
// coherence and fence invariants must hold on every combination the
// functional tests already prove terminates. This includes the WS+
// all-weak SB group, whose *program-level* SC violation is a documented
// contract breach, not a machine-invariant violation — the oracle must
// stay silent there.
func TestCheckersCleanOnLitmusSuite(t *testing.T) {
	for _, d := range fence.AllDesigns {
		t.Run(d.String(), func(t *testing.T) {
			al := mem.NewAllocator(dataBase)
			sb, _ := litmus.SB(al, litmus.Strong, litmus.Strong, 3)
			runCheckedMachine(t, d, 4, sb[:], nil)

			al = mem.NewAllocator(dataBase)
			asym, _ := litmus.SB(al, litmus.Weak, litmus.Strong, 3)
			runCheckedMachine(t, d, 4, asym[:], nil)
		})
	}
	t.Run("WPlus/all-weak-recovery", func(t *testing.T) {
		// Exercises the checker's rollback pruning (OnRollback): W+
		// recoveries squash retired-but-uncommitted stores.
		al := mem.NewAllocator(dataBase)
		progs, _ := litmus.SB(al, litmus.Weak, litmus.Weak, 3)
		runCheckedMachine(t, fence.WPlus, 4, progs[:], nil)
	})
	t.Run("WSPlus/all-weak-silent-scv", func(t *testing.T) {
		al := mem.NewAllocator(dataBase)
		progs, _ := litmus.SB(al, litmus.Weak, litmus.Weak, 3)
		runCheckedMachine(t, fence.WSPlus, 4, progs[:], nil)
	})
	t.Run("SWPlus/three-thread", func(t *testing.T) {
		al := mem.NewAllocator(dataBase)
		progs, _ := litmus.ThreeThread(al,
			[3]litmus.FenceChoice{litmus.Weak, litmus.Weak, litmus.Strong}, 3)
		runCheckedMachine(t, fence.SWPlus, 4, progs[:], nil)
	})
	for _, d := range []fence.Design{fence.WSPlus, fence.SWPlus, fence.WPlus} {
		t.Run(d.String()+"/false-sharing", func(t *testing.T) {
			al := mem.NewAllocator(dataBase)
			progs, _ := litmus.FalseSharing(al,
				[2]litmus.FenceChoice{litmus.Weak, litmus.Weak}, 3)
			runCheckedMachine(t, d, 4, progs[:], nil)
		})
	}
}

// TestCheckersCleanOnGeneratedLitmus runs seeds 1-100 of the random
// racy litmus generator's default shape (2, 4 or 8 cores, up to 24 ops
// per thread over 4 shared lines, so multi-bank Wee/GRT traffic is
// covered) under every design, with every checker on and the seed's
// timing faults injected. The shared region starts from the litmus
// initial image and is marked shared for Private Access Filtering.
// Nearly all of these programs are too large for the TSO enumerator's
// state cap, so the oracle is their only check.
func TestCheckersCleanOnGeneratedLitmus(t *testing.T) {
	for _, d := range fence.AllDesigns {
		t.Run(d.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 100; seed++ {
				g := litmus.Generate(mem.NewAllocator(dataBase), litmus.GenConfig{Seed: seed})
				store := mem.NewStore()
				for i := 0; i < int(g.Shared.Size/mem.WordSize); i++ {
					store.StoreWord(g.Shared.Base+mem.Addr(i)*mem.WordSize, litmus.InitWord(i))
				}
				pv := mem.NewPrivacy()
				pv.MarkRegion(g.Shared)
				m, err := sim.New(sim.Config{
					NCores:  g.NCores,
					Design:  d,
					Privacy: pv,
					Checker: check.New(check.All()),
					Faults:  faults.New(seed, faults.Default()),
				}, g.Programs, store)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					t.Fatalf("seed %d (%d cores): %v", seed, g.NCores, err)
				}
			}
		})
	}
}

// TestCheckersCleanWithFaults reruns the Bakery lock under every design
// with both the oracle and the deterministic fault injector enabled:
// timing perturbation must never manufacture an invariant violation.
func TestCheckersCleanWithFaults(t *testing.T) {
	for _, tc := range []struct {
		design fence.Design
		weak   []bool
	}{
		{fence.SPlus, []bool{false, false, false, false}},
		{fence.WSPlus, []bool{true, false, false, false}},
		{fence.SWPlus, []bool{true, false, false, false}},
		{fence.WPlus, []bool{true, true, true, true}},
		{fence.Wee, []bool{true, true, true, true}},
	} {
		t.Run(tc.design.String(), func(t *testing.T) {
			al := mem.NewAllocator(dataBase)
			progs, _ := litmus.Bakery(al, 4, 3, tc.weak, true)
			runCheckedMachine(t, tc.design, 4, progs, faults.New(7, faults.Default()))
		})
	}
}

// TestBrokenFenceCaught proves the oracle has teeth: a test-only broken
// strong fence that skips its write-buffer drain condition must trip the
// TSO checker with a typed violation that carries the flight-recorder
// tail.
func TestBrokenFenceCaught(t *testing.T) {
	cpu.DebugBrokenFence = true
	defer func() { cpu.DebugBrokenFence = false }()

	al := mem.NewAllocator(dataBase)
	x := al.AllocLines("x", 1)
	b := isa.NewBuilder("broken")
	b.Li(2, 7)
	b.Li(1, int32(x))
	b.St(2, 1, 0)  // store sits in the write buffer
	b.SFence()     // broken: retires without draining
	b.Ld(10, 1, 0) // forwarded load retires past the un-drained store
	b.Halt()

	m, err := sim.New(sim.Config{
		NCores:  2,
		Design:  fence.SPlus,
		Checker: check.New(check.Options{TSO: true}),
	}, []*isa.Program{b.MustBuild(), litmus.Idle()}, mem.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if err == nil {
		t.Fatal("broken fence went undetected")
	}
	var v *check.ViolationError
	if !errors.As(err, &v) {
		t.Fatalf("error is not a *check.ViolationError: %T: %v", err, err)
	}
	if v.Checker != "tso" {
		t.Fatalf("violation attributed to %q, want the tso checker: %v", v.Checker, v)
	}
	if !strings.Contains(v.Error(), "fence") {
		t.Errorf("violation message does not mention the fence:\n%v", v)
	}
	// Tracing was off, yet the always-on flight recorder must hand the
	// violation report a tail of the final events.
	if len(v.Tail) == 0 {
		t.Fatal("violation carries no flight-recorder tail despite tracing being off")
	}
	if !strings.Contains(v.Error(), "flight-recorder events before failure:") {
		t.Errorf("violation message does not render the recorder tail:\n%v", v)
	}
}

// TestCheckerObservationOnly verifies the oracle changes nothing: a run
// with every checker enabled must be bit-identical (same result digest)
// to the same run without it.
func TestCheckerObservationOnly(t *testing.T) {
	run := func(chk *check.Oracle) string {
		al := mem.NewAllocator(dataBase)
		progs, _ := litmus.Bakery(al, 4, 4, []bool{true, true, true, true}, true)
		m, err := sim.New(sim.Config{
			NCores: 4, Design: fence.WPlus, Checker: chk,
		}, progs, mem.NewStore())
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest()
	}
	plain := run(nil)
	checked := run(check.New(check.All()))
	if plain != checked {
		t.Fatalf("checker perturbed the run: digest %s != %s", checked, plain)
	}
}

// TestConfigValidate covers the typed rejection of nonsensical machine
// configurations, both directly and through Run.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   sim.Config
		field string // "" = valid
	}{
		{"zero-cores", sim.Config{}, "NCores"},
		{"negative-cores", sim.Config{NCores: -4}, "NCores"},
		{"non-pow2", sim.Config{NCores: 3}, "NCores"},
		{"too-many", sim.Config{NCores: 128}, "NCores"},
		{"watchdog-below-wplus-timeout", sim.Config{NCores: 4, WatchdogCycles: 10}, "WatchdogCycles"},
		{"negative-horizon", sim.Config{NCores: 4, MaxCycles: -1}, "MaxCycles"},
		{"negative-sampler", sim.Config{NCores: 4, SampleInterval: -5}, "SampleInterval"},
		{"sampler-beyond-horizon", sim.Config{NCores: 4, MaxCycles: 100, SampleInterval: 500}, "SampleInterval"},
		{"defaults-ok", sim.Config{NCores: 8}, ""},
		{"explicit-ok", sim.Config{NCores: 4, WatchdogCycles: 100_000, MaxCycles: 1_000_000, SampleInterval: 500}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			var ce *sim.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("got %v (%T), want a *ConfigError", err, err)
			}
			if ce.Field != tc.field {
				t.Fatalf("rejected field %q, want %q (%v)", ce.Field, tc.field, ce)
			}
		})
	}

	// Run must apply the same validation before stepping.
	m, err := sim.New(sim.Config{NCores: 4, WatchdogCycles: 10, Design: fence.SPlus},
		[]*isa.Program{litmus.Idle(), litmus.Idle(), litmus.Idle(), litmus.Idle()}, mem.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	var ce *sim.ConfigError
	if _, err := m.Run(); !errors.As(err, &ce) {
		t.Fatalf("Run accepted an invalid config: %v", err)
	}
}

// TestDeadlockReportOccupancy checks the widened watchdog report: every
// core's write-buffer depth and every directory bank's pending counts
// must be present, alongside the existing per-core dumps.
func TestDeadlockReportOccupancy(t *testing.T) {
	al := mem.NewAllocator(dataBase)
	progs, _ := litmus.SB(al, litmus.Weak, litmus.Weak, 3)
	m, err := sim.New(sim.Config{
		NCores:         4,
		Design:         fence.SWPlus,
		MaxCycles:      500_000,
		WatchdogCycles: 5_000,
	}, []*isa.Program{progs[0], progs[1], litmus.Idle(), litmus.Idle()}, mem.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected a deadlock, got %v", err)
	}
	if len(de.WBDepths) != 4 {
		t.Fatalf("WBDepths covers %d cores, want all 4", len(de.WBDepths))
	}
	if de.WBDepths[0] == 0 || de.WBDepths[1] == 0 {
		t.Errorf("deadlocked cores should show stuck head stores: %v", de.WBDepths)
	}
	if len(de.DirPending) != 4 {
		t.Fatalf("DirPending covers %d banks, want all 4", len(de.DirPending))
	}
	for i, dp := range de.DirPending {
		if dp.Bank != i {
			t.Errorf("DirPending[%d].Bank = %d", i, dp.Bank)
		}
	}
	msg := de.Error()
	for _, want := range []string{"wb depths:", "dir pending:", "core0=", "bank0="} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock report missing %q:\n%s", want, msg)
		}
	}
}
