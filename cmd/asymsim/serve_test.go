package main

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"asymfence"
)

func TestProgressRingLineAssemblyAndCap(t *testing.T) {
	r := newProgressRing(3)
	io.WriteString(r, "first li")
	io.WriteString(r, "ne\nsecond line\n")
	lines, total := r.Snapshot()
	if total != 2 || len(lines) != 2 {
		t.Fatalf("got %d lines (total %d), want 2: %q", len(lines), total, lines)
	}
	if lines[0] != "first line" || lines[1] != "second line" {
		t.Fatalf("partial writes not reassembled: %q", lines)
	}
	for _, s := range []string{"three\n", "four\n", "five\n"} {
		io.WriteString(r, s)
	}
	lines, total = r.Snapshot()
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
	if len(lines) != 3 || lines[0] != "three" || lines[2] != "five" {
		t.Fatalf("ring did not keep the last 3 lines: %q", lines)
	}
}

func TestServeMuxEndpoints(t *testing.T) {
	reg := asymfence.NewMetricsRegistry()
	reg.SetMeta("version", "test")
	reg.Scope("machine").Counter("cycles").Add(42)
	ring := newProgressRing(8)
	io.WriteString(ring, "job 1/2 done\n")

	srv := httptest.NewServer(serveMux(reg, ring))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}

	code, ctype, body := get("/metrics")
	if code != 200 || !strings.Contains(ctype, "text/plain") {
		t.Fatalf("/metrics: code %d, content-type %q", code, ctype)
	}
	if !strings.Contains(body, "asymfence_machine_cycles 42") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	code, ctype, body = get("/metrics?format=json")
	if code != 200 || !strings.Contains(ctype, "application/json") {
		t.Fatalf("/metrics?format=json: code %d, content-type %q", code, ctype)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics?format=json is not valid JSON: %v\n%s", err, body)
	}
	if snap["schema"] == "" {
		t.Fatalf("JSON snapshot has no schema field: %v", snap)
	}

	code, _, body = get("/progress")
	if code != 200 || !strings.Contains(body, "job 1/2 done") {
		t.Fatalf("/progress: code %d, body %q", code, body)
	}

	code, _, body = get("/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code %d", code)
	}

	code, _, body = get("/")
	if code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: code %d, body %q", code, body)
	}

	code, _, _ = get("/no-such-page")
	if code != 404 {
		t.Fatalf("unknown path: code %d, want 404", code)
	}
}
