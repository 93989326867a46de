// Package metrics is the machine-wide metrics registry: a
// dependency-free, deterministic collection of named counters, gauges
// and fixed-bucket histograms shared by the simulator, the experiment
// engine and the asymsim CLI (its -metrics snapshots).
//
// The design follows the same two contracts as internal/trace:
//
//   - Disabled must cost nothing. Every handle type (*Counter, *Gauge,
//     *Histogram) is nil-safe: operating on a nil handle is a no-op that
//     performs no allocation, so components hold handles unconditionally
//     and the registry simply is not wired when metrics are off. A
//     testing.AllocsPerRun test holds the zero-alloc property.
//
//   - Output must be deterministic. Snapshots render metrics in sorted
//     name order with integer values only, so two identical runs produce
//     byte-identical JSON (schema asymfence-metrics/v1, the one output
//     format). Wall-clock and scheduling-dependent metrics are
//     segregated: anything registered under a Timing scope lands in the
//     snapshot's separate "timing" section, which the determinism tests
//     exclude.
//
// Names are hierarchical dot-separated paths ("machine.wb.occupancy",
// "engine.cache.hits") built through nested Scopes. Handles are atomic,
// so worker-pool goroutines may update them concurrently; counter and
// histogram updates commute, which keeps batch-merged totals independent
// of scheduling. OBSERVABILITY.md documents the registry contract and
// the scope naming convention.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds the metric instruments of one collection domain (one
// process, typically). A nil *Registry is valid and disabled: Scope on
// it returns a nil *Scope whose handle constructors return nil handles.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	timing   map[string]bool // names relegated to the "timing" section
	meta     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		timing:   map[string]bool{},
		meta:     map[string]string{},
	}
}

// SetMeta records a constant key/value pair emitted with every snapshot
// (provenance: version, revision, command line), in its "meta" section,
// apart from the metrics.
func (r *Registry) SetMeta(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.meta[key] = value
	r.mu.Unlock()
}

// Scope returns the named top-level scope of the registry. On a nil
// registry it returns nil, which is itself a valid, disabled scope.
func (r *Registry) Scope(name string) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{r: r, prefix: name + "."}
}

// Scope is a named namespace of a Registry. Handles registered through
// a scope get the scope's dotted prefix. A nil *Scope is valid and
// disabled: its constructors return nil handles and its sub-scope
// methods return nil scopes.
type Scope struct {
	r      *Registry
	prefix string
	timing bool
}

// Scope returns a nested sub-scope ("engine" -> "engine.cache").
func (s *Scope) Scope(name string) *Scope {
	if s == nil {
		return nil
	}
	return &Scope{r: s.r, prefix: s.prefix + name + ".", timing: s.timing}
}

// Timing returns this scope's "timing" sub-scope. Metrics registered
// under it carry wall-clock or scheduling-dependent values; snapshots
// isolate them in a separate "timing" section that the determinism
// guarantee (and its tests) exclude.
func (s *Scope) Timing() *Scope {
	if s == nil {
		return nil
	}
	return &Scope{r: s.r, prefix: s.prefix + "timing.", timing: true}
}

// Counter registers (or retrieves) the named monotonic counter.
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	full := s.prefix + name
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[full]
	if !ok {
		c = &Counter{}
		r.counters[full] = c
		if s.timing {
			r.timing[full] = true
		}
	}
	return c
}

// Gauge registers (or retrieves) the named gauge.
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	full := s.prefix + name
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[full]
	if !ok {
		g = &Gauge{}
		r.gauges[full] = g
		if s.timing {
			r.timing[full] = true
		}
	}
	return g
}

// Histogram registers (or retrieves) the named fixed-bucket histogram.
// Bounds are inclusive upper bucket bounds in ascending order; an
// implicit +Inf bucket is appended. On re-registration the first call's
// bounds win.
func (s *Scope) Histogram(name string, bounds ...int64) *Histogram {
	if s == nil {
		return nil
	}
	full := s.prefix + name
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[full]
	if !ok {
		h = newHistogram(bounds)
		r.hists[full] = h
		if s.timing {
			r.timing[full] = true
		}
	}
	return h
}

// Counter is a monotonic int64 counter. All methods are nil-safe and
// allocation-free; Add is safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (no-op on a nil counter).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value. All methods are nil-safe and
// allocation-free; Set and SetMax are safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v (no-op on a nil gauge).
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v exceeds the current value
// (high-water-mark semantics).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts int64 observations into fixed buckets. All methods
// are nil-safe and allocation-free; Observe is safe for concurrent use.
type Histogram struct {
	bounds []int64        // ascending inclusive upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Int64
	n      atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value (no-op on a nil histogram).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observed values (0 on a nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}
