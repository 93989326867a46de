package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"asymfence/internal/stats"
)

func TestNilTracerIsDisabledAndFree(t *testing.T) {
	var tr *Tracer
	// The whole point of the nil fast path: emitting into a disabled
	// tracer must not allocate (the simulator calls this every cycle).
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(1, KFenceWeak, 0, 0x1000, 3, 4, 0)
		tr.Emit(2, KNoCSend, 1, 0, 2, 8, 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %v per run, want 0", allocs)
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer buffered something")
	}
}

func TestMaskFilters(t *testing.T) {
	tr := New(Options{Mask: MaskFence})
	tr.Emit(1, KFenceWeak, 0, 0, 1, 2, 0)
	tr.Emit(2, KNoCSend, 0, 0, 1, 8, 0)
	tr.Emit(3, KDirGetS, 1, 0x40, 0, 1, 0)
	tr.Emit(4, KFenceComplete, 0, 0, 2, 0, 0)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("masked tracer kept %d events, want 2", len(evs))
	}
	if evs[0].Kind != KFenceWeak || evs[1].Kind != KFenceComplete {
		t.Fatalf("wrong events survived the mask: %v", evs)
	}
}

func TestRingCapacityDropsOldest(t *testing.T) {
	tr := New(Options{MaxEvents: 4})
	for i := int64(0); i < 10; i++ {
		tr.Emit(i, KSquash, 0, 0, i, 0, 0)
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped=%d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len=%d, want 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(6 + i); e.Cycle != want {
			t.Fatalf("evs[%d].Cycle=%d, want %d (oldest must be dropped in order)", i, e.Cycle, want)
		}
	}
}

func TestParseMask(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mask
		ok   bool
	}{
		{"", MaskAll, true},
		{"all", MaskAll, true},
		{"fence", MaskFence, true},
		{"fence,dir", MaskFence | MaskDir, true},
		{"fence, noc", MaskFence | MaskNoC, true},
		{"bogus", 0, false},
	} {
		got, ok := ParseMask(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Fatalf("ParseMask(%q) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestEveryKindHasNameAndClass(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if kindNames[k] == "" {
			t.Fatalf("kind %d has no schema name", k)
		}
		if kindClass[k] == 0 {
			t.Fatalf("kind %v has no class mask", k)
		}
	}
}

func sampleFixture() ([]Event, []Sample) {
	evs := []Event{
		{Cycle: 10, Kind: KFenceWeak, Node: 0, A: 5, B: 17},
		{Cycle: 12, Kind: KDirGetM, Node: 1, Line: 0x1040, A: 0, B: 99, C: 1},
		{Cycle: 14, Kind: KWBBounce, Node: 0, Line: 0x1040, A: 9},
		{Cycle: 20, Kind: KFenceComplete, Node: 0, A: 17, B: 3},
		{Cycle: 21, Kind: KNoCSend, Node: 0, A: 1, B: 8, C: 2},
	}
	samples := []Sample{
		{Cycle: 100, Core: 0, Busy: 70, FenceStall: 20, OtherStall: 10, Retired: 150, WFences: 2},
		{Cycle: 100, Core: 1, Busy: 90, OtherStall: 10, Retired: 200, SFences: 1},
	}
	return evs, samples
}

func TestJSONLWellFormedAndDeterministic(t *testing.T) {
	evs, samples := sampleFixture()
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, evs, samples, 7); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, evs, samples, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("JSONL export is not byte-identical across calls")
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	if len(lines) != 1+len(evs)+len(samples) {
		t.Fatalf("got %d lines, want %d", len(lines), 1+len(evs)+len(samples))
	}
	for i, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, ln)
		}
		if obj["type"] == nil {
			t.Fatalf("line %d has no type: %s", i, ln)
		}
	}
	// Spot-check schema: the fence.weak line must name its args.
	if !strings.Contains(lines[1], `"kind":"fence.weak"`) || !strings.Contains(lines[1], `"pc":5`) {
		t.Fatalf("fence.weak line missing named args: %s", lines[1])
	}
	if !strings.Contains(lines[2], `"line":"0x1040"`) {
		t.Fatalf("dir.getm line missing line address: %s", lines[2])
	}
}

func TestChromeExportIsValidTraceEventJSON(t *testing.T) {
	evs, samples := sampleFixture()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, evs, samples); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	var haveBegin, haveEnd, haveCounter, haveInstant bool
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "b":
			haveBegin = true
		case "e":
			haveEnd = true
		case "C":
			haveCounter = true
		case "i":
			haveInstant = true
		}
		if e["ph"] != "M" && e["ts"] == nil {
			t.Fatalf("non-metadata event without ts: %v", e)
		}
	}
	if !haveBegin || !haveEnd {
		t.Fatal("fence lifecycle did not produce async b/e span events")
	}
	if !haveCounter {
		t.Fatal("interval samples did not produce counter events")
	}
	if !haveInstant {
		t.Fatal("no instant events in export")
	}
	// Determinism.
	var again bytes.Buffer
	if err := WriteChrome(&again, evs, samples); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("Chrome export is not byte-identical across calls")
	}
}

func TestSamplerDeltas(t *testing.T) {
	s := NewSampler(100, 2)
	st0, st1 := stats.NewCore(), stats.NewCore()
	st0.BusyCycles, st0.RetiredInstrs, st0.WFences = 60, 120, 3
	st1.OtherStallCycles = 100
	if !s.Due(100) || s.Due(150) {
		t.Fatal("Due boundary wrong")
	}
	s.Record(100, 0, st0)
	s.Record(100, 1, st1)
	st0.BusyCycles, st0.RetiredInstrs, st0.WFences = 110, 220, 2 // a demotion took one back
	s.Record(200, 0, st0)
	rows := s.Samples()
	if len(rows) != 3 {
		t.Fatalf("rows=%d, want 3", len(rows))
	}
	if rows[0].Busy != 60 || rows[0].Retired != 120 || rows[0].WFences != 3 {
		t.Fatalf("first interval wrong: %+v", rows[0])
	}
	if rows[2].Busy != 50 || rows[2].Retired != 100 || rows[2].WFences != -1 {
		t.Fatalf("delta interval wrong: %+v", rows[2])
	}
	// Flush covers the tail once and is idempotent.
	st0.BusyCycles = 115
	s.Flush(250, []*stats.Core{st0, st1})
	s.Flush(250, []*stats.Core{st0, st1})
	rows = s.Samples()
	if len(rows) != 5 {
		t.Fatalf("after flush rows=%d, want 5", len(rows))
	}
	if rows[3].Busy != 5 {
		t.Fatalf("flushed tail delta wrong: %+v", rows[3])
	}
}

func TestNilSamplerIsSafe(t *testing.T) {
	var s *Sampler
	if s.Due(0) || s.Every() != 0 || s.Samples() != nil {
		t.Fatal("nil sampler misbehaves")
	}
	s.Flush(10, nil)
	if NewSampler(0, 4) != nil {
		t.Fatal("NewSampler(0) must return the disabled sampler")
	}
}
