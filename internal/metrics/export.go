package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// SchemaJSON identifies the JSON snapshot layout.
const SchemaJSON = "asymfence-metrics/v1"

// The exporter never iterates live maps while rendering: it first takes
// a point-in-time snapshot under the registry lock, sorts it by name, and
// then writes fields in a fixed order — so identical registry contents
// produce byte-identical output (the determinism tests assert it), and
// rendering never blocks instrument updates for long.

// instKind distinguishes the instrument families in a snapshot item.
type instKind uint8

const (
	kindCounter instKind = iota
	kindGauge
	kindHist
)

// item is one instrument frozen for export.
type item struct {
	name   string
	kind   instKind
	timing bool
	v      int64 // counter/gauge value
	// histogram payload
	bounds []int64
	counts []int64
	sum, n int64
}

// metaPair is one frozen meta key/value.
type metaPair struct{ k, v string }

// freeze snapshots the registry's instruments and meta, sorted by name.
func (r *Registry) freeze() (items []item, meta []metaPair) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	for name, c := range r.counters {
		items = append(items, item{name: name, kind: kindCounter, timing: r.timing[name], v: c.Value()})
	}
	for name, g := range r.gauges {
		items = append(items, item{name: name, kind: kindGauge, timing: r.timing[name], v: g.Value()})
	}
	for name, h := range r.hists {
		it := item{name: name, kind: kindHist, timing: r.timing[name],
			bounds: h.bounds, sum: h.sum.Load(), n: h.n.Load()}
		for i := range h.counts {
			it.counts = append(it.counts, h.counts[i].Load())
		}
		items = append(items, it)
	}
	for k, v := range r.meta {
		meta = append(meta, metaPair{k, v})
	}
	r.mu.Unlock()
	sort.Slice(items, func(i, j int) bool { return items[i].name < items[j].name })
	sort.Slice(meta, func(i, j int) bool { return meta[i].k < meta[j].k })
	return items, meta
}

// WriteJSON renders the snapshot as indented JSON: a schema line, the
// meta pairs, the deterministic "metrics" section, and the wall-clock
// "timing" section, each sorted by name. The determinism guarantee
// covers everything outside "timing".
func (r *Registry) WriteJSON(w io.Writer) error {
	items, meta := r.freeze()
	bw := bufio.NewWriter(w)
	bw.WriteString("{\n")
	fmt.Fprintf(bw, "  %q: %q,\n", "schema", SchemaJSON)
	bw.WriteString("  \"meta\": {")
	for i, m := range meta {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n    %q: %q", m.k, m.v)
	}
	if len(meta) > 0 {
		bw.WriteString("\n  ")
	}
	bw.WriteString("},\n")
	writeSection(bw, "metrics", items, false)
	bw.WriteString(",\n")
	writeSection(bw, "timing", items, true)
	bw.WriteString("\n}\n")
	return bw.Flush()
}

// JSON returns the WriteJSON rendering as a byte slice.
func (r *Registry) JSON() []byte {
	var b strings.Builder
	r.WriteJSON(&b) // cannot fail on a strings.Builder
	return []byte(b.String())
}

// writeSection renders one named section with the items matching the
// timing classification.
func writeSection(bw *bufio.Writer, section string, items []item, timing bool) {
	fmt.Fprintf(bw, "  %q: {", section)
	first := true
	for i := range items {
		it := &items[i]
		if it.timing != timing {
			continue
		}
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, "\n    %q: ", it.name)
		switch it.kind {
		case kindCounter, kindGauge:
			bw.WriteString(strconv.FormatInt(it.v, 10))
		case kindHist:
			fmt.Fprintf(bw, `{"count": %d, "sum": %d, "buckets": [`, it.n, it.sum)
			for j, n := range it.counts {
				if j > 0 {
					bw.WriteString(", ")
				}
				if j < len(it.bounds) {
					fmt.Fprintf(bw, `{"le": %d, "n": %d}`, it.bounds[j], n)
				} else {
					fmt.Fprintf(bw, `{"le": "+Inf", "n": %d}`, n)
				}
			}
			bw.WriteString("]}")
		}
	}
	if !first {
		bw.WriteString("\n  ")
	}
	bw.WriteByte('}')
}
