package sim_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"asymfence/internal/check"
	"asymfence/internal/cpu"
	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/trace"
	"asymfence/internal/workloads/litmus"
)

// An all-weak SB group under SW+ genuinely deadlocks: both post-fence
// loads retire early into the Bypass Sets, and each head store's
// Conditional Order fails forever on the same-word true sharing (the
// paper requires an sf in the group for SW+ progress, §3.3.2). The
// watchdog must fire and report the full machine state.
func TestAllWeakSWPlusDeadlockReportsState(t *testing.T) {
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
	if err == nil {
		t.Fatal("all-weak SW+ SB group finished; expected a deadlock")
	}
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("errors.Is(err, ErrDeadlock) = false for %v", err)
	}
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error is not a *DeadlockError: %T", err)
	}
	if de.Cycle <= 0 {
		t.Fatalf("deadlock cycle not recorded: %d", de.Cycle)
	}
	if len(de.Cores) != 2 {
		t.Fatalf("got %d unfinished cores, want the 2 deadlocked ones: %v", len(de.Cores), de)
	}
	for i, c := range de.Cores {
		if c.ID != i {
			t.Fatalf("core dump %d has id %d", i, c.ID)
		}
		if !strings.Contains(c.State, "wbBounced=true") {
			t.Errorf("core %d dump does not show the bounced head store:\n%s", c.ID, c.State)
		}
	}
	msg := de.Error()
	for _, want := range []string{"deadlock at cycle", "core 0:", "core 1:", "wb head:", "lq=0 sq=0"} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock report missing %q:\n%s", want, msg)
		}
	}
	// Tracing was off, yet the always-on flight recorder must still
	// hand the report a tail of the final events.
	if len(de.Tail) == 0 {
		t.Fatal("deadlock report has no flight-recorder tail despite tracing being off")
	}
	if !strings.Contains(msg, "flight-recorder events before failure:") {
		t.Errorf("deadlock report does not render the recorder tail:\n%s", msg)
	}
	for i := 1; i < len(de.Tail); i++ {
		if de.Tail[i].Cycle < de.Tail[i-1].Cycle {
			t.Fatalf("tail out of order at %d: %v then %v", i, de.Tail[i-1], de.Tail[i])
		}
	}
}

// TestFailureTailComesFromTheTrace: a machine has one event buffer. An
// untraced machine's is the flight recorder, so its deadlock report
// carries the last RecorderDepth events of every class; a traced
// machine's is its trace, so both failure reports carry exactly the
// trace's Tail, masked like the trace.
func TestFailureTailComesFromTheTrace(t *testing.T) {
	deadlock := func(tr *trace.Tracer) *sim.DeadlockError {
		t.Helper()
		al := mem.NewAllocator(dataBase)
		progs, _ := litmus.SB(al, litmus.Weak, litmus.Weak, 3)
		m, err := sim.New(sim.Config{
			NCores: 4, Design: fence.SWPlus, MaxCycles: 500_000, WatchdogCycles: 5_000, Trace: tr,
		}, []*isa.Program{progs[0], progs[1], litmus.Idle(), litmus.Idle()}, mem.NewStore())
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.Run()
		var de *sim.DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("want a *DeadlockError, got %T: %v", err, err)
		}
		return de
	}
	classes := func(evs []trace.Event) map[string]bool {
		seen := map[string]bool{}
		for _, e := range evs {
			class, _, _ := strings.Cut(e.Kind.String(), ".")
			seen[class] = true
		}
		return seen
	}

	untraced := deadlock(nil)
	if len(untraced.Tail) != trace.RecorderDepth {
		t.Fatalf("untraced deadlock tail holds %d events, want %d", len(untraced.Tail), trace.RecorderDepth)
	}
	if seen := classes(untraced.Tail); !seen["noc"] || !seen["wb"] {
		t.Errorf("untraced tail lacks a class: saw %v", seen)
	}

	tr := trace.New(trace.Options{Mask: trace.MaskFence | trace.MaskWB})
	traced := deadlock(tr)
	if !reflect.DeepEqual(traced.Tail, tr.Tail()) || len(traced.Tail) == 0 {
		t.Fatalf("traced deadlock tail (%d events) is not the trace's tail (%d)", len(traced.Tail), len(tr.Tail()))
	}
	if seen := classes(traced.Tail); seen["noc"] || seen["dir"] || !seen["wb"] {
		t.Errorf("traced tail under -events fence,wb holds classes %v", seen)
	}

	cpu.DebugBrokenFence = true
	defer func() { cpu.DebugBrokenFence = false }()
	al := mem.NewAllocator(dataBase)
	x := al.AllocLines("x", 1)
	b := isa.NewBuilder("broken")
	b.Li(2, 7)
	b.Li(1, int32(x))
	b.St(2, 1, 0)
	b.SFence()
	b.Ld(10, 1, 0)
	b.Halt()
	tr = trace.New(trace.Options{Mask: trace.MaskNoC})
	m, err := sim.New(sim.Config{
		NCores: 2, Design: fence.SPlus, Checker: check.New(check.Options{TSO: true}), Trace: tr,
	}, []*isa.Program{b.MustBuild(), litmus.Idle()}, mem.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	var v *check.ViolationError
	if !errors.As(err, &v) {
		t.Fatalf("want a *check.ViolationError, got %T: %v", err, err)
	}
	if !reflect.DeepEqual(v.Tail, tr.Tail()) || len(v.Tail) == 0 {
		t.Fatalf("violation tail (%d events) is not the trace's tail (%d)", len(v.Tail), len(tr.Tail()))
	}
	if seen := classes(v.Tail); len(seen) != 1 || !seen["noc"] {
		t.Errorf("violation tail under -events noc holds classes %v", seen)
	}
}
