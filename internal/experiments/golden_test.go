package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"asymfence/internal/experiments/runner"
	"asymfence/internal/fence"
)

// update regenerates testdata/golden_digests.json from the current
// simulator instead of comparing against it:
//
//	go test ./internal/experiments -run TestGoldenDigests -update
var update = flag.Bool("update", false, "rewrite golden digest testdata")

const goldenPath = "testdata/golden_digests.json"

// goldenRun executes one short mixed-workload run and returns its result
// digest. The three workload shapes (task-parallel CilkApps run to
// completion, ustm fixed-horizon throughput, STAMP run to completion)
// exercise every fence design path: strong fences, Bypass Set early
// completions, bouncing, Order/Conditional Order upgrades, W+ recovery
// and WeeFence deposits.
func goldenRun(t *testing.T, group, app string, d fence.Design) string {
	t.Helper()
	s := runner.Spec{Group: group, App: app, Design: d, Cores: 8, Scale: 0.05, Horizon: 25_000}
	if group == "stamp" {
		s.Scale = 0.1
	}
	_, res, err := run(context.Background(), s, runObs{})
	if err != nil {
		t.Fatalf("%s %s under %v: %v", group, app, d, err)
	}
	return res.Digest()
}

// goldenCases is the short mixed workload: one app per workload shape,
// plus ustm's wide-working-set List (the app the kernel-busy benchmark
// workload runs), under each of the paper's five designs.
func goldenCases() []struct{ Group, App string } {
	return []struct{ Group, App string }{
		{"cilk", "fib"},
		{"ustm", "Counter"},
		{"stamp", "ssca2"},
		{"ustm", "List"},
	}
}

// TestGoldenDigests pins a hash of the full simulation Result (cycle
// counts, every per-core counter, NoC and directory accounting) for each
// of the five designs on a short mixed workload. The committed goldens
// were generated before the quiescence-aware cycle kernel landed, so a
// green run proves the optimized kernel is architecturally
// byte-identical to per-cycle stepping — the determinism contract of
// PERFORMANCE.md.
func TestGoldenDigests(t *testing.T) {
	got := map[string]string{}
	for _, c := range goldenCases() {
		for _, d := range fence.AllDesigns {
			key := fmt.Sprintf("%s:%s:%s", c.Group, c.App, d)
			got[key] = goldenRun(t, c.Group, c.App, d)
		}
	}
	if *update {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]string, len(got))
		for _, k := range keys {
			ordered[k] = got[k]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (run with -update to generate): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, test produced %d (regenerate with -update)", len(want), len(got))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: missing from this run", key)
		} else if g != w {
			t.Errorf("%s: digest %s, want %s — experiment output changed", key, g, w)
		}
	}
}
