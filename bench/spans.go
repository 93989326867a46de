package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one recorded interval: a workload, a phase of it, or one call
// into a layer. Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name       string
	Parent     int
	Start, End time.Duration // offsets from the tracer's start
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// *tracer records nothing, so workload code calls it unconditionally.
// Spans nest by a stack, so one goroutine records them.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span whose parent is the innermost open span and returns
// the function that closes it. Spans close in reverse order of opening.
func (t *tracer) start(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0)})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = time.Since(t.t0)
		t.open = t.open[:len(t.open)-1]
	}
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of it its children cover. Children may overlap one another (two
// workers inside one parent) and may run past their parent, so what is
// subtracted is the union of the children's intervals clipped to the
// parent.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type interval struct{ a, b time.Duration }
		var iv []interval
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if a < b {
				iv = append(iv, interval{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x].a < iv[y].a })
		var covered, reach time.Duration
		for _, v := range iv {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (open it in
// ui.perfetto.dev or chrome://tracing), with each span's self time and
// parent in its args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(t.spans)
	events := make([]event, len(t.spans))
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		args := map[string]any{"self_us": us(self[i])}
		if s.Parent >= 0 {
			args["parent"] = t.spans[s.Parent].Name
		}
		events[i] = event{Name: s.Name, Cat: layer, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: 1, Args: args}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
