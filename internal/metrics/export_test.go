package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden snapshot file")

// golden compares got against testdata/name, rewriting it under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/metrics -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestJSONGolden pins the exact JSON snapshot rendering (field order,
// indentation, section split) against a checked-in golden file.
func TestJSONGolden(t *testing.T) {
	r := populate()
	r.SetMeta("version", "v0.0.0-test")
	r.SetMeta("revision", "deadbeef")
	got := r.JSON()
	golden(t, "snapshot.json", got)

	// The rendering must also be valid JSON with the documented shape.
	var doc struct {
		Schema  string                     `json:"schema"`
		Meta    map[string]string          `json:"meta"`
		Metrics map[string]json.RawMessage `json:"metrics"`
		Timing  map[string]json.RawMessage `json:"timing"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, got)
	}
	if doc.Schema != SchemaJSON {
		t.Errorf("schema = %q, want %q", doc.Schema, SchemaJSON)
	}
	if doc.Meta["revision"] != "deadbeef" {
		t.Errorf("meta lost: %v", doc.Meta)
	}
	if _, ok := doc.Metrics["machine.wb.occupancy"]; !ok {
		t.Errorf("metrics section missing histogram: %v", doc.Metrics)
	}
	if _, ok := doc.Timing["engine.timing.worker_busy_ns"]; !ok {
		t.Errorf("timing section missing busy counter: %v", doc.Timing)
	}
	if _, ok := doc.Metrics["engine.timing.worker_busy_ns"]; ok {
		t.Error("timing metric leaked into the deterministic section")
	}
}
