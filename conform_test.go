package asymfence

import (
	"context"
	"encoding/json"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"asymfence/internal/cpu"
	asymruntime "asymfence/runtime"
)

// quickConform is a small clean-campaign configuration shared by the
// tests: enough seeds to cover both generator shapes, cheap enough to
// run twice for the reproducibility check.
func quickConform() ConformOptions {
	return ConformOptions{
		Seeds:      6,
		Schedules:  2,
		Iterations: 24,
	}
}

func TestConformCleanCampaign(t *testing.T) {
	rep, err := RunConform(context.Background(), quickConform())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("conformance violation on a clean build: %v", rep.Violation.Error())
	}
	if rep.Seeds != 6 {
		t.Fatalf("Seeds = %d, want 6", rep.Seeds)
	}
	if rep.SimRuns == 0 || rep.HWIterations == 0 {
		t.Fatalf("campaign ran nothing: %+v", rep)
	}
	if len(rep.ModesRun) == 0 {
		t.Fatal("no hardware modes ran")
	}
	for _, sr := range rep.PerSeed {
		if sr.Skipped {
			continue
		}
		if sr.Strong == 0 || sr.Relaxed < sr.Strong {
			t.Fatalf("seed %d: closure sizes wrong: strong=%d relaxed=%d", sr.Seed, sr.Strong, sr.Relaxed)
		}
		for d, n := range sr.SimOutcomes {
			if n == 0 {
				t.Fatalf("seed %d design %s observed no sim outcomes", sr.Seed, d)
			}
		}
	}
	if asymruntime.Supported() {
		found := false
		for _, m := range rep.ModesRun {
			if m == "membarrier" {
				found = true
			}
		}
		if !found {
			t.Fatal("membarrier supported but not exercised")
		}
	}
}

// TestConformReportReproducible: the JSON-serialized report of a fixed
// configuration must be byte-identical across runs — the deterministic
// sections carry no hardware-coverage data.
func TestConformReportReproducible(t *testing.T) {
	run := func() []byte {
		rep, err := RunConform(context.Background(), quickConform())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("report not byte-reproducible:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

// TestConformCatchesBrokenFence: with the simulator's strong fence
// deliberately broken, the sweep must either trip the invariant oracle
// or observe an outcome outside its design's closure — and report a
// minimized violation rather than passing.
func TestConformCatchesBrokenFence(t *testing.T) {
	cpu.DebugBrokenFence = true
	defer func() { cpu.DebugBrokenFence = false }()
	opts := ConformOptions{
		Seeds:      30,
		Schedules:  2,
		Iterations: 1, // hardware is not under test here
	}
	rep, err := RunConform(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil {
		t.Fatal("broken sfence survived the conformance sweep")
	}
	if !strings.HasPrefix(rep.Violation.Domain, "sim") {
		t.Fatalf("violation domain = %q, want a sim domain", rep.Violation.Domain)
	}
	if len(rep.Violation.Programs) == 0 {
		t.Fatal("violation carries no minimized programs")
	}
	if rep.Violation.Error() == "" {
		t.Fatal("violation has no message")
	}
}

// TestConformOracleOnlySeeds: seeds too large to enumerate are skipped
// for the closure checks but still swept through the simulator under
// the invariant oracle, which must catch a broken strong fence there
// and minimize the programs it fired on. MaxStates is lowered only so
// the test does not spend seconds enumerating each 8-core seed to the
// default cap.
func TestConformOracleOnlySeeds(t *testing.T) {
	opts := ConformOptions{Cores: 8, OpsPerCore: 24, Seeds: 2, Schedules: 1, Iterations: 1, MaxStates: 1000}
	rep, err := RunConform(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("oracle-only seeds violated on a clean build: %v", rep.Violation.Error())
	}
	if rep.SeedsSkipped != 2 || rep.SimRuns != 10 || rep.HWIterations != 0 {
		t.Fatalf("SeedsSkipped=%d SimRuns=%d HWIterations=%d, want 2 skipped seeds swept by 10 sim runs and no hardware run",
			rep.SeedsSkipped, rep.SimRuns, rep.HWIterations)
	}

	t.Run("BrokenFence", func(t *testing.T) {
		cpu.DebugBrokenFence = true
		defer func() { cpu.DebugBrokenFence = false }()
		opts.Seeds = 50
		rep, err := RunConform(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		v := rep.Violation
		if v == nil {
			t.Fatal("broken strong fence survived 50 oracle-only seeds")
		}
		if v.Domain != "sim-oracle/S+/s0" {
			t.Fatalf("violation in domain %q, want sim-oracle/S+/s0: %v", v.Domain, v.Error())
		}
		// The fence checker catches the skipped drain at retire time;
		// with it disabled the TSO checker would catch the reordered
		// load later. Either way the flight-recorder tail comes along.
		if !strings.HasPrefix(v.Detail, "check: fence violation") && !strings.HasPrefix(v.Detail, "check: tso violation") {
			t.Fatalf("violation not attributed to the fence or tso checker: %s", v.Detail)
		}
		if !strings.Contains(v.Detail, "flight-recorder events before failure:") {
			t.Errorf("violation carries no flight-recorder tail:\n%s", v.Detail)
		}
		// The minimized programs must keep the essential shape — a
		// store, a strong fence and the halts — with nops elsewhere.
		all := strings.Join(v.Programs, "\n")
		for _, want := range []string{"st r", "sfence", "halt"} {
			if !strings.Contains(all, want) {
				t.Errorf("minimized programs lost %q:\n%s", want, all)
			}
		}
	})
}

// TestConformProgressLine pins the clean-seed progress lines of seeds 1
// and 2 except the distinct hardware outcome count, which depends on the
// host's schedules: it must lie between 1 and the strong closure's size
// printed after it.
func TestConformProgressLine(t *testing.T) {
	var buf strings.Builder
	rep, err := RunConform(context.Background(), ConformOptions{Seeds: 2, Progress: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("conformance violation on a clean build: %v", rep.Violation.Error())
	}
	want := []string{
		"conform: seed 1 ok (2 cores, strong=1 relaxed=1, 20 sim runs, hw=N/1, sim=1/1)",
		"conform: seed 2 ok (2 cores, strong=7 relaxed=7, 20 sim runs, hw=N/7, sim=3/7)",
	}
	hw := regexp.MustCompile(`hw=(\d+)/(\d+),`)
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("progress:\n%s\nwant %d lines", buf.String(), len(want))
	}
	for i, line := range got {
		m := hw.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("progress line %q has no hw=<distinct>/<strong>", line)
		}
		distinct, _ := strconv.Atoi(m[1])
		strong, _ := strconv.Atoi(m[2])
		if distinct < 1 || distinct > strong {
			t.Errorf("progress line %q: %d distinct hardware outcomes, want 1 to %d", line, distinct, strong)
		}
		if line = hw.ReplaceAllString(line, "hw=N/$2,"); line != want[i] {
			t.Errorf("progress line %d:\n got %s\nwant %s", i+1, line, want[i])
		}
	}
}

func TestConformMetricsScope(t *testing.T) {
	reg := NewMetricsRegistry()
	opts := ConformOptions{Seeds: 2, Schedules: 1, Iterations: 8}
	opts.Metrics = reg
	if _, err := RunConform(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	sc := reg.Scope("conform")
	if sc.Counter("seeds").Value() != 2 {
		t.Fatalf("conform.seeds = %d, want 2", sc.Counter("seeds").Value())
	}
	if sc.Counter("sim.runs").Value() == 0 || sc.Counter("hw.iterations").Value() == 0 {
		t.Fatal("conform counters not exported")
	}
}

// TestConformRejectsBadShape: a core count the simulator cannot build,
// or a negative operation count, is an error before any program is
// generated, with no report, so a library caller cannot crash the
// generator with either.
func TestConformRejectsBadShape(t *testing.T) {
	for _, opts := range []ConformOptions{{Cores: 3}, {Cores: -2}, {Cores: 128}, {OpsPerCore: -3}} {
		if rep, err := RunConform(context.Background(), opts); err == nil || rep != nil {
			t.Errorf("RunConform(%+v) = %v, %v; want an error and no report", opts, rep, err)
		}
	}
}

func TestConformCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunConform(ctx, quickConform()); err == nil {
		t.Fatal("cancelled conform run returned nil error")
	}
}
