package sim_test

import (
	"errors"
	"strings"
	"testing"

	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
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
