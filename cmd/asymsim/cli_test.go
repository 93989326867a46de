package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for asymsim: with
// ASYMSIM_CLI_MAIN=1 in its environment it runs main on its arguments
// instead of the tests, so the CLI tests drive the real command line,
// exit codes included, in a subprocess.
func TestMain(m *testing.M) {
	if os.Getenv("ASYMSIM_CLI_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// asymsim runs one command line in a subprocess and returns its stdout,
// stderr and exit code.
func asymsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ASYMSIM_CLI_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("asymsim %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// TestCLIRunStore holds `asymsim -store D run <group>:<app>` to the
// store: the cold run writes one record per design, and the warm rerun
// simulates nothing and prints the same output.
func TestCLIRunStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	args := []string{"-q", "-store", dir, "-cores", "4", "-scale", "0.05", "run", "cilk:fib"}
	cold, coldErr, code := asymsim(t, args...)
	if code != 0 {
		t.Fatalf("cold run exited %d:\n%s", code, coldErr)
	}
	records, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.rec"))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(runDesigns) {
		t.Fatalf("store holds %d records after one run, want %d (one per design)", len(records), len(runDesigns))
	}
	warm, warmErr, code := asymsim(t, args...)
	if code != 0 {
		t.Fatalf("warm run exited %d:\n%s", code, warmErr)
	}
	if want := fmt.Sprintf("(0 simulated, 0 cache hits, %d store hits)", len(runDesigns)); !strings.Contains(warmErr, want) {
		t.Errorf("warm run simulated: %s", warmErr)
	}
	if cold != warm {
		t.Errorf("warm stdout differs from cold:\n--- cold\n%s\n--- warm\n%s", cold, warm)
	}
}

// TestCLISubcommands drives trace and the experiment path end to end
// at a tiny scale, and holds their command lines' usage errors.
func TestCLISubcommands(t *testing.T) {
	t.Run("trace is reproducible", func(t *testing.T) {
		args := []string{"trace", "cilk:fib", "-cores", "4", "-scale", "0.05"}
		a, stderr, code := asymsim(t, args...)
		if code != 0 || a == "" {
			t.Fatalf("trace exited %d with %d bytes:\n%s", code, len(a), stderr)
		}
		if b, _, _ := asymsim(t, args...); a != b {
			t.Fatal("two identical trace runs produced different output")
		}
		var doc struct {
			OtherData   map[string]any   `json:"otherData"`
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(a), &doc); err != nil {
			t.Fatalf("trace is not one JSON document: %v", err)
		}
		var instants, counters float64
		for _, e := range doc.TraceEvents {
			switch e["ph"] {
			case "M":
			case "C":
				counters++
			default:
				instants++
			}
		}
		// Each interval row is three counter events.
		if doc.OtherData["events"] != instants || doc.OtherData["samples"] != counters/3 || counters == 0 ||
			doc.OtherData["dropped"] != 0.0 || doc.OtherData["generator"] == nil {
			t.Errorf("otherData %v does not count the %v events and %v counter rows", doc.OtherData, instants, counters)
		}
	})
	t.Run("removed -format flag is a usage error", func(t *testing.T) {
		args := []string{"trace", "cilk:fib", "-cores", "4", "-scale", "0.05", "-format", "jsonl"}
		if stdout, _, code := asymsim(t, args...); code != 2 || stdout != "" {
			t.Errorf("asymsim %v: exit %d, stdout %q; want exit 2 and no output", args, code, stdout)
		}
	})
	// An output given "-" owns stdout: it is the only thing there. The
	// snapshot holds each subcommand's own metrics; conform's include
	// the fence runtime's, whose hardware sweep runs heavy fences.
	t.Run("metrics to stdout is the only stdout output", func(t *testing.T) {
		for _, tc := range []struct {
			args  []string
			prose string   // the command's own output, moved to stderr
			keys  []string // metrics the snapshot must hold
		}{
			{[]string{"-q", "-cores", "4", "-scale", "0.05", "-metrics", "-", "run", "cilk:fib"}, "cilk:fib under each design",
				[]string{"engine.jobs", "machine.runs"}},
			{[]string{"conform", "-quick", "-q", "-seeds", "2", "-metrics", "-"}, "no conformance violations",
				[]string{"runtime.heavy.fallback", "runtime.supported"}},
		} {
			stdout, stderr, code := asymsim(t, tc.args...)
			var doc struct {
				Metrics map[string]any `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(stdout), &doc); code != 0 || err != nil {
				t.Errorf("asymsim %v: exit %d; stdout is not one JSON document (%v):\n%s", tc.args, code, err, stdout)
			}
			for _, k := range tc.keys {
				if _, ok := doc.Metrics[k]; !ok {
					t.Errorf("asymsim %v: snapshot lacks %s:\n%s", tc.args, k, stdout)
				}
			}
			if !strings.Contains(stderr, tc.prose) {
				t.Errorf("asymsim %v: stderr lacks %q:\n%s", tc.args, tc.prose, stderr)
			}
		}
	})
	t.Run("two outputs on stdout is a usage error", func(t *testing.T) {
		for _, args := range [][]string{
			{"conform", "-quick", "-q", "-seeds", "2", "-report", "-", "-metrics", "-"},
			{"trace", "cilk:fib", "-cores", "4", "-scale", "0.05", "-metrics", "-"},
		} {
			stdout, stderr, code := asymsim(t, args...)
			if code != 2 || stdout != "" || strings.Contains(stderr, "panic:") {
				t.Errorf("asymsim %v: exit %d, stdout %q; want exit 2 and no output:\n%s", args, code, stdout, stderr)
			}
		}
	})
	// Go exits 2 on a panic too, so a usage error must also leave no
	// "panic:" on stderr.
	t.Run("bad core count is a usage error", func(t *testing.T) {
		for _, args := range [][]string{
			{"-cores", "3", "fig9"},
			{"-cores", "3", "run", "cilk:fib"},
			{"trace", "cilk:fib", "-cores", "3"},
			{"conform", "-cores", "3"},
			{"conform", "-cores", "-2"},
			{"conform", "-ops", "-3"},
		} {
			stdout, stderr, code := asymsim(t, args...)
			if code != 2 || stdout != "" || strings.Contains(stderr, "panic:") {
				t.Errorf("asymsim %v: exit %d, stdout %q; want exit 2, no output and no panic:\n%s", args, code, stdout, stderr)
			}
		}
	})
	t.Run("output into a missing directory is an error", func(t *testing.T) {
		missing := filepath.Join(t.TempDir(), "missing")
		for _, tc := range []struct {
			path string
			args []string
		}{
			{filepath.Join(missing, "m.json"), []string{"-q", "-cores", "4", "-scale", "0.05", "-metrics", filepath.Join(missing, "m.json"), "run", "cilk:fib"}},
			{filepath.Join(missing, "r.json"), []string{"conform", "-quick", "-q", "-seeds", "1", "-report", filepath.Join(missing, "r.json")}},
			{filepath.Join(missing, "t.json"), []string{"trace", "cilk:fib", "-cores", "4", "-scale", "0.05", "-trace-out", filepath.Join(missing, "t.json")}},
		} {
			if _, stderr, code := asymsim(t, tc.args...); code != 1 || !strings.Contains(stderr, tc.path) {
				t.Errorf("asymsim %v: exit %d, stderr %q; want exit 1 naming %s", tc.args, code, stderr, tc.path)
			}
		}
	})
	t.Run("removed serve subcommand is a usage error", func(t *testing.T) {
		args := []string{"serve", "-listen", "127.0.0.1:0", "fig9"}
		if stdout, _, code := asymsim(t, args...); code != 2 || stdout != "" {
			t.Errorf("asymsim %v: exit %d, stdout %q; want exit 2 and no output", args, code, stdout)
		}
	})
}
