package experiments

import (
	"strconv"

	"asymfence/internal/coherence"
	"asymfence/internal/fence"
	"asymfence/internal/metrics"
	"asymfence/internal/noc"
	"asymfence/internal/stats"
	"asymfence/internal/store"
)

// MeasurementKind is the payload format tag measurement records carry
// in the on-disk store. Records are written with json.Marshal and read
// back by decode (at the end of this file), which reads every field of
// Measurement, stats.Core, coherence.DirStats and noc.Stats in
// declaration order. A field added to any of them must be added to
// decode too, or every record reads as corrupt; TestMeasurementRoundTrip
// fills every field by reflection and fails until it is. Bump the kind
// when the shape changes incompatibly: old records then read as misses
// and regenerate.
const MeasurementKind = "measurement/v1"

// MeasurementStoreOptions configure OpenMeasurementStore.
type MeasurementStoreOptions struct {
	// Metrics, when non-nil, receives the store's counters under the
	// "store" scope (hits, misses, writes, bytes, write_errors,
	// corrupt). Nil disables them; Stats is always available.
	Metrics *metrics.Registry
}

// MeasurementStore is the persistent measurement tier: a content-
// addressed on-disk store (internal/store) holding one versioned JSON
// record per canonical simulation key, shared across processes. It
// implements runner.Tier[*Measurement], so an Engine wired with one
// serves warm configurations without simulating — in any process, not
// just the one that first measured them.
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
// version). It implements runner.Tier.
func (ms *MeasurementStore) Load(key string) (*Measurement, bool) {
	if ms == nil {
		return nil, false
	}
	m := new(Measurement)
	if !ms.s.Get(key, m.decode) {
		return nil, false
	}
	return m, true
}

// Store persists a measurement under its canonical spec key, returning
// once the record is on disk or the write has failed. It implements
// runner.Tier.
func (ms *MeasurementStore) Store(key string, m *Measurement) {
	if ms == nil || m == nil {
		return
	}
	ms.s.Put(key, m)
}

// Stats returns the underlying store's traffic snapshot.
func (ms *MeasurementStore) Stats() store.Stats {
	if ms == nil {
		return store.Stats{}
	}
	return ms.s.Stats()
}

// Close releases the store. Every record is on disk once Store
// returns, so there is nothing to flush and Close always succeeds.
func (ms *MeasurementStore) Close() error { return nil }

// decode reads a measurement/v1 payload.
func (m *Measurement) decode(r *store.Reader) {
	r.Open('{')
	m.Group = r.Field("Group").Str()
	m.App = r.Field("App").Str()
	m.Design = fence.Design(r.Field("Design").Uint(8))
	m.Cycles = r.Field("Cycles").Int(64)
	m.Commits = r.Field("Commits").Uint(64)
	m.Horizon = r.Field("Horizon").Int(64)
	m.Busy = r.Field("Busy").Float()
	m.FenceStall = r.Field("FenceStall").Float()
	m.OtherStall = r.Field("OtherStall").Float()
	m.Agg = decodeCore(r.Field("Agg"))
	m.Dir = decodeDir(r.Field("Dir"))
	m.NoC = decodeNoC(r.Field("NoC"))
	r.Close('}')
}

func decodeCore(r *store.Reader) *stats.Core {
	c := new(stats.Core)
	r.Open('{')
	c.BusyCycles = r.Field("BusyCycles").Uint(64)
	c.FenceStallCycles = r.Field("FenceStallCycles").Uint(64)
	c.OtherStallCycles = r.Field("OtherStallCycles").Uint(64)
	c.IdleCycles = r.Field("IdleCycles").Uint(64)
	c.RetiredInstrs = r.Field("RetiredInstrs").Uint(64)
	c.SFences = r.Field("SFences").Uint(64)
	c.WFences = r.Field("WFences").Uint(64)
	c.DemotedWFences = r.Field("DemotedWFences").Uint(64)
	c.BouncedWrites = r.Field("BouncedWrites").Uint(64)
	c.BounceRetries = r.Field("BounceRetries").Uint(64)
	c.BouncesGiven = r.Field("BouncesGiven").Uint(64)
	c.Squashes = r.Field("Squashes").Uint(64)
	c.Mispredicts = r.Field("Mispredicts").Uint(64)
	c.Recoveries = r.Field("Recoveries").Uint(64)
	c.OrderOps = r.Field("OrderOps").Uint(64)
	c.CondOrderOps = r.Field("CondOrderOps").Uint(64)
	c.BSLinesSum = r.Field("BSLinesSum").Uint(64)
	c.BSLinesSamples = r.Field("BSLinesSamples").Uint(64)
	c.Events = decodeCounts[int32](r.Field("Events"), 32)
	c.FenceSiteStall = decodeCounts[int](r.Field("FenceSiteStall"), strconv.IntSize)
	c.HaltCycle = r.Field("HaltCycle").Int(64)
	r.Close('}')
	return c
}

// decodeCounts reads a map from integer keys of the given bit size to
// counts. A key written twice fails the record.
func decodeCounts[K int32 | int](r *store.Reader, bits int) map[K]uint64 {
	m := make(map[K]uint64)
	r.Open('{')
	for r.More('}') {
		k := K(r.Key(bits))
		n := len(m)
		if m[k] = r.Uint(64); len(m) == n {
			r.Fail()
		}
	}
	r.Close('}')
	return m
}

func decodeDir(r *store.Reader) coherence.DirStats {
	var d coherence.DirStats
	r.Open('{')
	d.GetSReqs = r.Field("GetSReqs").Uint(64)
	d.GetMReqs = r.Field("GetMReqs").Uint(64)
	d.Writebacks = r.Field("Writebacks").Uint(64)
	d.BouncedWrites = r.Field("BouncedWrites").Uint(64)
	d.OrderOps = r.Field("OrderOps").Uint(64)
	d.CondOrderFails = r.Field("CondOrderFails").Uint(64)
	d.CondOrderOks = r.Field("CondOrderOks").Uint(64)
	d.MemFetches = r.Field("MemFetches").Uint(64)
	d.L2Hits = r.Field("L2Hits").Uint(64)
	d.GRTDeposits = r.Field("GRTDeposits").Uint(64)
	d.GRTRemovals = r.Field("GRTRemovals").Uint(64)
	r.Close('}')
	return d
}

func decodeNoC(r *store.Reader) noc.Stats {
	var s noc.Stats
	r.Open('{')
	s.Packets = r.Field("Packets").Uint(64)
	s.Bytes = r.Field("Bytes").Uint(64)
	decodeArray(r.Field("BytesByCat"), s.BytesByCat[:])
	decodeArray(r.Field("PacketsByCat"), s.PacketsByCat[:])
	r.Close('}')
	return s
}

// decodeArray reads a fixed-size array of counts; its length must match.
func decodeArray(r *store.Reader, a []uint64) {
	r.Open('[')
	for i := range a {
		a[i] = r.Elem().Uint(64)
	}
	r.Close(']')
}
