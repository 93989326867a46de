package experiments_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"asymfence/internal/experiments"
	"asymfence/internal/experiments/runner"
	"asymfence/internal/fence"
)

// measurement simulates one small ustm job and returns its measurement,
// a real record body of about 1 KB.
func measurement(tb testing.TB) *experiments.Measurement {
	tb.Helper()
	ms, err := eng.RunSpecs(ctx, []runner.Spec{{Group: "ustm", App: "Counter", Design: fence.SPlus, Cores: 4, Horizon: 3000}})
	if err != nil {
		tb.Fatal(err)
	}
	return ms[0]
}

// openStore opens a measurement store in a fresh directory.
func openStore(tb testing.TB) (*experiments.MeasurementStore, string) {
	tb.Helper()
	dir := tb.TempDir()
	st, err := experiments.OpenMeasurementStore(dir, experiments.MeasurementStoreOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return st, dir
}

// TestLoadBadPayloadIsCorrupt rewrites a stored record into a valid
// measurement/v1 envelope whose payload is missing, null or not a
// Measurement. Each must read as corrupt: a miss, counted in Corrupt and
// not in Hits, with the file deleted, so the job re-simulates and the
// store's hits agree with the engine's.
func TestLoadBadPayloadIsCorrupt(t *testing.T) {
	m := measurement(t)
	for _, tc := range []struct {
		name    string
		payload string // "" deletes the payload key
	}{
		{"missing", ""},
		{"null", `null`},
		{"mistyped", `{"Cycles":"12345"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, dir := openStore(t)
			st.Store("k", m)
			if _, ok := st.Load("k"); !ok {
				t.Fatal("intact record missed")
			}
			files, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.json"))
			if err != nil || len(files) != 1 {
				t.Fatalf("record files %v, %v; want one", files, err)
			}
			b, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			var env map[string]json.RawMessage
			if err := json.Unmarshal(b, &env); err != nil {
				t.Fatal(err)
			}
			if tc.payload == "" {
				delete(env, "payload")
			} else {
				env["payload"] = json.RawMessage(tc.payload)
			}
			if b, err = json.Marshal(env); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], b, 0o666); err != nil {
				t.Fatal(err)
			}

			if got, ok := st.Load("k"); ok {
				t.Fatalf("payload %q served as a hit: %+v", tc.payload, got)
			}
			if s := st.Stats(); s.Hits != 1 || s.Corrupt != 1 || s.Misses != 1 {
				t.Fatalf("stats %+v; want the intact hit only, 1 corrupt, 1 miss", s)
			}
			if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
				t.Fatalf("corrupt record not deleted: %v", err)
			}
		})
	}
}

// BenchmarkLoad is the store tier's read path, the whole of a warm
// regeneration's per-job cost: one Load of a real ~1 KB measurement
// record (open, read and decode the file). B/op and allocs/op are one
// load's.
func BenchmarkLoad(b *testing.B) {
	st, _ := openStore(b)
	st.Store("k", measurement(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Load("k"); !ok {
			b.Fatal("miss")
		}
	}
}
