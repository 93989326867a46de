package experiments

import (
	"asymfence/internal/metrics"
	"asymfence/internal/stats"
	"asymfence/internal/store"
)

// MeasurementKind is the payload format tag measurement records carry
// in the on-disk store: it names the layout Measurement.fields (at the
// end of this file) lists. Bump it whenever that list changes, so that
// records of the old layout read as misses and regenerate instead of
// decoding into the wrong fields; TestMeasurementEncodingPinned fails
// until it is.
const MeasurementKind = "measurement/v2"

// MeasurementStoreOptions configure OpenMeasurementStore.
type MeasurementStoreOptions struct {
	// Metrics, when non-nil, receives the store's counters under the
	// "store" scope (hits, misses, writes, bytes, write_errors,
	// corrupt). Nil disables them.
	Metrics *metrics.Registry
}

// MeasurementStore is the persistent measurement tier: a content-
// addressed on-disk store (internal/store) holding one checksummed
// binary record per canonical simulation key, shared across processes.
// An Engine configured with one (RunConfig.Store) serves warm
// configurations without simulating — in any process, not just the one
// that first measured them.
//
// Simulations are deterministic, so a record loaded from the store is
// byte-equivalent (after table rendering) to a fresh simulation; the
// equivalence test in the root package holds this.
type MeasurementStore struct {
	s *store.Store
}

// OpenMeasurementStore opens (creating if necessary) the measurement
// store rooted at dir.
func OpenMeasurementStore(dir string, o MeasurementStoreOptions) (*MeasurementStore, error) {
	s, err := store.Open(dir, store.Options{Kind: MeasurementKind, Metrics: o.Metrics.Scope("store")})
	if err != nil {
		return nil, err
	}
	return &MeasurementStore{s: s}, nil
}

// Load returns the measurement stored under the canonical spec key, or
// ok=false on a miss (absent, corrupt or from an incompatible payload
// version). A nil store always misses.
func (ms *MeasurementStore) Load(key string) (*Measurement, bool) {
	if ms == nil {
		return nil, false
	}
	m := &Measurement{Agg: new(stats.Core)}
	if !ms.s.Get(key, m.fields) {
		return nil, false
	}
	return m, true
}

// Store persists a measurement under its canonical spec key, returning
// once the record is on disk or the write has failed. A measurement
// without Agg, which no simulation makes, is not stored, and a nil
// store stores nothing.
func (ms *MeasurementStore) Store(key string, m *Measurement) {
	if ms == nil || m == nil || m.Agg == nil {
		return
	}
	ms.s.Put(key, m.fields)
}

// Close releases the store. Every record is on disk once Store
// returns, so there is nothing to flush and Close always succeeds.
func (ms *MeasurementStore) Close() error { return nil }

// fields lists a measurement's fields in record order for c to write or
// read: Store runs it with a store.Writer and Load with a store.Reader,
// so the two directions cannot disagree, and nothing else fixes the
// layout. A field added to Measurement, stats.Core, coherence.DirStats
// or noc.Stats must be listed here, or for a stats.Core or DirStats
// counter in its Counters (TestMeasurementRoundTrip fails until it is),
// and MeasurementKind bumped.
func (m *Measurement) fields(c store.Codec) {
	a, n := m.Agg, &m.NoC
	c.Str(&m.Group)
	c.Str(&m.App)
	c.Byte((*uint8)(&m.Design))
	c.Int(&m.Cycles)
	c.Uint(&m.Commits)
	c.Int(&m.Horizon)
	c.Float(&m.Busy)
	c.Float(&m.FenceStall)
	c.Float(&m.OtherStall)
	for _, f := range a.Counters() {
		c.Uint(f.Val)
	}
	for _, f := range m.Dir.Counters() {
		c.Uint(f.Val)
	}
	c.Uint(&n.Packets)
	c.Uint(&n.Bytes)
	for i := range n.BytesByCat {
		c.Uint(&n.BytesByCat[i])
	}
	for i := range n.PacketsByCat {
		c.Uint(&n.PacketsByCat[i])
	}
	store.Counts(c, &a.Events)
	store.Counts(c, &a.FenceSiteStall)
	c.Int(&a.HaltCycle)
}
