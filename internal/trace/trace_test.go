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
		{"fence,wb,cpu,dir,noc", MaskAll, true},
		{"wb,", MaskWB, true},
		{",", 0, false},
		{" , ", 0, false},
		{"bogus", 0, false},
	} {
		got, ok := ParseMask(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Fatalf("ParseMask(%q) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestEveryKindHasNameAndClass(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		info := kinds[k]
		if info.name == "" || seen[info.name] {
			t.Fatalf("kind %d has no schema name or shares %q", k, info.name)
		}
		seen[info.name] = true
		if info.class == 0 || info.class&(info.class-1) != 0 || info.class&^MaskAll != 0 {
			t.Fatalf("kind %v has class %#x, want exactly one class bit", k, info.class)
		}
		if m, ok := ParseMask(k.class()); !ok || m != info.class {
			t.Fatalf("kind %v: class name %q parses to (%#x, %v), want %#x", k, k.class(), m, ok, info.class)
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
		{Cycle: 100, Core: 0, Busy: 70, FenceStall: 20, OtherStall: 10, Retired: 150, WFences: 2, Squashes: 4},
		{Cycle: 100, Core: 1, Busy: 90, OtherStall: 10, Retired: 200, SFences: 1, Bounces: 3},
	}
	return evs, samples
}

func TestChromeExportIsValidTraceEventJSON(t *testing.T) {
	evs, samples := sampleFixture()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, evs, samples, 7); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData   map[string]any   `json:"otherData"`
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	if gen, _ := doc.OtherData["generator"].(string); !strings.HasPrefix(gen, "asymsim ") {
		t.Errorf("otherData.generator = %q, want the asymsim version", gen)
	}
	for key, want := range map[string]float64{"events": 5, "samples": 2, "dropped": 7} {
		if got := doc.OtherData[key]; got != want {
			t.Errorf("otherData.%s = %v, want %v", key, got, want)
		}
	}
	var haveBegin, haveEnd, haveInstant bool
	counters := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "b":
			haveBegin = true
		case "e":
			haveEnd = true
		case "C":
			for name := range e["args"].(map[string]any) {
				counters[name] = true
			}
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
	if !haveInstant {
		t.Fatal("no instant events in export")
	}
	// Every field of an interval row is on a counter track.
	for _, f := range []string{"busy", "fencestall", "otherstall", "idle", "retired",
		"strong", "weak", "bounces", "recoveries", "squashes"} {
		if !counters[f] {
			t.Errorf("no counter track carries the sample field %q", f)
		}
	}
	// Instants name their arguments and render line addresses in hex.
	for _, want := range []string{
		`"name":"dir.getm","cat":"dir","ph":"i","s":"t","ts":12,"pid":1,"tid":1,"args":{"line":"0x1040","core":0,"reqid":99,"order":1}`,
		`"name":"wb.bounce","cat":"wb","ph":"i","s":"t","ts":14,"pid":0,"tid":0,"args":{"line":"0x1040","seq":9}`,
		`"name":"noc.send","cat":"noc","ph":"i","s":"t","ts":21,"pid":0,"tid":2,"args":{"dst":1,"bytes":8,"cat":2}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("export lacks %s", want)
		}
	}
	// Determinism.
	var again bytes.Buffer
	if err := WriteChrome(&again, evs, samples, 7); err != nil {
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

func TestRecorderTailOrdering(t *testing.T) {
	tr := New(Options{MaxEvents: RecorderDepth})
	if tr.Tail() != nil || tr.Len() != 0 {
		t.Fatal("fresh recorder must be empty")
	}
	for i := 0; i < 10; i++ {
		tr.Emit(int64(i), KWBBounce, 0, 0, int64(i), 0, 0)
	}
	tail := tr.Tail()
	if len(tail) != 10 {
		t.Fatalf("tail len = %d, want 10", len(tail))
	}
	for i, e := range tail {
		if e.Cycle != int64(i) {
			t.Fatalf("tail[%d].Cycle = %d, want %d (oldest-first)", i, e.Cycle, i)
		}
	}
}

// TestRecorderWrapsKeepingNewest: a tail is the RecorderDepth newest
// events, oldest first, whether the buffer is the flight recorder's
// wrapped ring or a longer trace.
func TestRecorderWrapsKeepingNewest(t *testing.T) {
	total := RecorderDepth*2 + 17
	for _, opts := range []Options{{MaxEvents: RecorderDepth}, {}, {MaxEvents: 300}} {
		tr := New(opts)
		for i := 0; i < total; i++ {
			tr.Emit(int64(i), KSquash, 1, 0x40, 0, 0, 0)
		}
		if got := uint64(tr.Len()) + tr.Dropped(); got != uint64(total) {
			t.Fatalf("%+v: kept+dropped = %d, want %d", opts, got, total)
		}
		tail := tr.Tail()
		if len(tail) != RecorderDepth {
			t.Fatalf("%+v: tail len = %d, want %d", opts, len(tail), RecorderDepth)
		}
		for i, e := range tail {
			if want := int64(total - RecorderDepth + i); e.Cycle != want {
				t.Fatalf("%+v: tail[%d].Cycle = %d, want %d", opts, i, e.Cycle, want)
			}
		}
	}
}

// TestRecordingEmitIsAllocationFree holds the flight recorder's
// contract: New allocates a bounded tracer's whole ring, so no Emit
// allocates, from a fresh tracer's first event through its wrap.
func TestRecordingEmitIsAllocationFree(t *testing.T) {
	fresh := []*Tracer{New(Options{MaxEvents: RecorderDepth}), New(Options{MaxEvents: RecorderDepth})}
	allocs := testing.AllocsPerRun(1, func() {
		tr := fresh[0]
		fresh = fresh[1:]
		for c := int64(0); c < 3*RecorderDepth; c++ {
			tr.Emit(c, KWBBounce, 2, 0x80, c, 0, 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("%d Emits into a fresh recorder allocated %v times, want 0", 3*RecorderDepth, allocs)
	}
}

func TestFormatTail(t *testing.T) {
	if FormatTail(nil) != "" {
		t.Error("empty tail must render empty")
	}
	got := FormatTail([]Event{{Cycle: 7, Kind: KWBBounce, Node: 3, Line: 0x40, A: 9}})
	for _, want := range []string{"last 1 flight-recorder events", "@7", "wb.bounce", "node=3", "line=0x40", "a=9"} {
		if !strings.Contains(got, want) {
			t.Errorf("FormatTail missing %q in:\n%s", want, got)
		}
	}
}
