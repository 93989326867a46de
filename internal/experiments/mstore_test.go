package experiments_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"asymfence/internal/coherence"
	"asymfence/internal/experiments"
	"asymfence/internal/fence"
	"asymfence/internal/metrics"
	"asymfence/internal/noc"
	"asymfence/internal/stats"
)

// measurement simulates one small ustm job and returns its measurement,
// a real record body of about 1 KB.
func measurement(tb testing.TB) *experiments.Measurement {
	tb.Helper()
	ms, err := eng.RunSpecs(ctx, []experiments.Spec{{Group: "ustm", App: "Counter", Design: fence.SPlus, Cores: 4, Horizon: 3000}})
	if err != nil {
		tb.Fatal(err)
	}
	return ms[0]
}

// record stores m under key in a fresh measurement store, counting
// into reg (nil: uncounted), and returns the store, the record file's
// path and its bytes.
func record(tb testing.TB, key string, m *experiments.Measurement, reg *metrics.Registry) (*experiments.MeasurementStore, string, []byte) {
	tb.Helper()
	dir := tb.TempDir()
	st, err := experiments.OpenMeasurementStore(dir, experiments.MeasurementStoreOptions{Metrics: reg})
	if err != nil {
		tb.Fatal(err)
	}
	st.Store(key, m)
	files, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.rec"))
	if err != nil || len(files) != 1 {
		tb.Fatalf("record files %v, %v; want one", files, err)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		tb.Fatal(err)
	}
	return st, files[0], b
}

// sealed returns body with the CRC-32C (Castagnoli) checksum Store
// appends to a record: bytes that pass the checksum whatever they hold.
func sealed(body []byte) []byte {
	sum := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), sum)
}

// withPayload returns record bytes rec, the record Store writes for m,
// with the payload replaced and the checksum recomputed, so the payload
// is the only fault.
func withPayload(rec []byte, m *experiments.Measurement, payload []byte) []byte {
	header := rec[:len(rec)-4-len(experiments.EncodeMeasurement(m))]
	return sealed(append(bytes.Clone(header), payload...))
}

// badPayloads are payloads that must read as corrupt although their
// record's checksum holds: missing, all NUL bytes, with a field written
// too narrow, cut short of fields (Agg included, which a figure would
// dereference), with a field more than Store writes, a map key repeated
// or out of order, or a length that runs past the end.
func badPayloads(tb testing.TB, m *experiments.Measurement) []struct {
	name    string
	payload []byte
} {
	tb.Helper()
	p := experiments.EncodeMeasurement(m)
	group := 4 + len(m.Group)
	cycles := group + 4 + len(m.App) + 1 // through App and Design
	commits := cycles + 2*8              // through Cycles and Commits
	agg := commits + 4*8                 // through Horizon and the three fractions
	// The Events map, set to {9: 1, 10: 1}, is the count 2 and two
	// entries of a key and a count each.
	word := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	entries := func(kv ...uint64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, 2)
		for _, v := range kv {
			b = append(b, word(v)...)
		}
		return b
	}
	two, agg2 := *m, *m.Agg
	agg2.Events = map[int32]uint64{9: 1, 10: 1}
	two.Agg = &agg2
	p2 := experiments.EncodeMeasurement(&two)
	events := bytes.Index(p2, entries(9, 1, 10, 1))
	if events < 0 || bytes.Index(p2[events+1:], entries(9, 1, 10, 1)) >= 0 {
		tb.Fatal("no single Events map {9: 1, 10: 1} in the payload")
	}
	edit := func(at int, b []byte) []byte {
		return append(append(bytes.Clone(p2[:at]), b...), p2[at+len(b):]...)
	}
	return []struct {
		name    string
		payload []byte
	}{
		{"missing", nil},
		{"null", make([]byte, len(p))},
		{"mistyped", append(bytes.Clone(p[:cycles+4]), p[cycles+8:]...)}, // Cycles as a 32-bit word
		{"commits only", p[:commits]},
		{"null Agg", p[:agg]},
		{"extra field", append(bytes.Clone(p), word(0)...)},
		{"duplicated field", append(bytes.Clone(p[:group]), p...)},
		{"duplicated key", edit(events, entries(9, 1, 9, 1))},
		{"keys out of order", edit(events, entries(10, 1, 9, 1))},
		{"count past the end", edit(events, binary.LittleEndian.AppendUint32(nil, 1<<16))},
		{"string past the end", edit(0, binary.LittleEndian.AppendUint32(nil, uint32(len(p2))))},
	}
}

// storeCount reads one of the store's counters from reg.
func storeCount(reg *metrics.Registry, name string) int64 {
	return reg.Scope("store").Counter(name).Value()
}

// TestLoadBadPayloadIsCorrupt rewrites a stored record into one whose
// payload is missing, short of fields, longer than Store writes, or
// edited in ways Store never writes, with the header kept byte for byte
// and the checksum recomputed, so the payload is the only fault. Each
// must read as corrupt: a miss, counted in store.corrupt and not in
// store.hits, with the file deleted, so the job re-simulates and the
// store's hits agree with the engine's.
func TestLoadBadPayloadIsCorrupt(t *testing.T) {
	m := measurement(t)
	for _, tc := range badPayloads(t, m) {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			st, path, rec := record(t, "k", m, reg)
			if _, ok := st.Load("k"); !ok {
				t.Fatal("intact record missed")
			}
			if err := os.WriteFile(path, withPayload(rec, m, tc.payload), 0o666); err != nil {
				t.Fatal(err)
			}

			if got, ok := st.Load("k"); ok {
				t.Fatalf("payload % x served as a hit: %+v", tc.payload, got)
			}
			if h, c, m := storeCount(reg, "hits"), storeCount(reg, "corrupt"), storeCount(reg, "misses"); h != 1 || c != 1 || m != 1 {
				t.Fatalf("%d hits, %d corrupt, %d misses; want the intact hit only, 1 corrupt, 1 miss", h, c, m)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt record not deleted: %v", err)
			}
		})
	}
}

// TestDamagedRecordIsCorrupt damages a real record every way a disk
// can: each single-bit flip, each truncation, and one appended byte.
// Every damaged copy must read as a corrupt miss, counted, with its
// file removed: the checksum turns each into one, and none is served.
func TestDamagedRecordIsCorrupt(t *testing.T) {
	reg := metrics.NewRegistry()
	st, path, rec := record(t, "k", measurement(t), reg)
	damaged := 0
	load := func(b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o666); err != nil {
			t.Fatal(err)
		}
		damaged++
		if got, ok := st.Load("k"); ok {
			t.Fatalf("damaged copy %d (%d bytes) served as a hit: %+v", damaged, len(b), got)
		}
		if c := storeCount(reg, "corrupt"); c != int64(damaged) {
			t.Fatalf("damaged copy %d: %d corrupt; want it counted corrupt", damaged, c)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("damaged copy %d not removed: %v", damaged, err)
		}
	}
	b := bytes.Clone(rec)
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			b[i] ^= 1 << bit
			load(b)
			b[i] ^= 1 << bit
		}
	}
	for n := range rec {
		load(rec[:n])
	}
	load(append(b, 0))
	if want, hits := 9*len(rec)+1, storeCount(reg, "hits"); damaged != want || hits != 0 {
		t.Fatalf("%d damaged copies, %d hits; want %d, no hit", damaged, hits, want)
	}
	t.Logf("%d damaged copies of a %d-byte record, every one a corrupt miss", damaged, len(rec))
}

// filled returns a measurement with every field set by reflection,
// recursing into nested structs, pointers, arrays and maps, so a field
// added to the record later is set too. Each kind of scalar draws
// distinct values from its own sequence, chosen to stress the
// encoding: MaxUint64 and down (a narrower field gets its own
// maximum), negative integers (map keys included), tiny and huge
// floats, strings with quotes, backslashes and multi-byte runes. Every
// map gets size entries, and HaltCycle is -1, as for a core that ran to
// the horizon.
func filled(tb testing.TB, size int) *experiments.Measurement {
	tb.Helper()
	var uints, ints, strs uint64
	floats := []float64{1e-7, 5e+300, -2.5e-8, 1e21}
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Map:
			v.Set(reflect.MakeMap(v.Type()))
			for i := 0; i < size; i++ {
				k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				fill(k)
				fill(e)
				v.SetMapIndex(k, e)
			}
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
			if u := math.MaxUint64 - uints; v.OverflowUint(u) {
				v.SetUint(1<<v.Type().Bits() - 1)
			} else {
				v.SetUint(u)
				uints++
			}
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
			ints++
			i := -int64(ints) << 40
			if v.OverflowInt(i) {
				i = -int64(ints)
			}
			v.SetInt(i)
		case reflect.Float64:
			v.SetFloat(floats[0])
			floats = append(floats[1:], floats[0]*3)
		case reflect.String:
			strs++
			v.SetString(fmt.Sprintf("%d \"q\" \\ <b>&\u2028é\t", strs))
		default:
			tb.Fatalf("filled: no value for a %v", v.Type())
		}
	}
	m := new(experiments.Measurement)
	fill(reflect.ValueOf(m).Elem())
	m.Agg.HaltCycle = -1
	return m
}

// TestMeasurementRoundTrip is the guard on the record's shape: a
// measurement with every field set, stored and loaded, comes back
// equal. A field added to Measurement or a type it holds but not to
// Measurement.fields fails here instead of loading as zero.
func TestMeasurementRoundTrip(t *testing.T) {
	for _, size := range []int{0, 3} {
		m := filled(t, size)
		key := "ustm:<List>&\u2028@S+"
		st, _, _ := record(t, key, m, nil)
		got, ok := st.Load(key)
		if !ok || !reflect.DeepEqual(got, m) {
			t.Fatalf("maps of %d: Load = %+v, %v; want %+v", size, got, ok, m)
		}
	}
}

// pinnedPayloads are the SHA-256 digests of pinned()'s payload under
// each measurement kind that has had a layout.
var pinnedPayloads = map[string]string{
	"measurement/v2": "d69dd1e4b191c613d37e03250216888dccdbe920868fbad299e237e80b622e21",
}

// pinned returns one fixed measurement, every field set by name.
func pinned() *experiments.Measurement {
	m := &experiments.Measurement{
		Group: "ustm", App: "List", Design: fence.WPlus,
		Cycles: 1, Commits: 2, Horizon: 3, Busy: 0.5, FenceStall: 0.25, OtherStall: 0.125,
		Agg: &stats.Core{
			BusyCycles: 4, FenceStallCycles: 5, OtherStallCycles: 6, IdleCycles: 7,
			RetiredInstrs: 8, SFences: 9, WFences: 10, DemotedWFences: 11,
			BouncedWrites: 12, BounceRetries: 13, BouncesGiven: 14, Squashes: 15,
			Mispredicts: 16, Recoveries: 17, OrderOps: 18, CondOrderOps: 19,
			BSLinesSum: 20, BSLinesSamples: 21,
			Events:         map[int32]uint64{3: 22, -1: 23},
			FenceSiteStall: map[int]uint64{40: 24, 7: 25},
			HaltCycle:      -1,
		},
		Dir: coherence.DirStats{
			GetSReqs: 26, GetMReqs: 27, Writebacks: 28, BouncedWrites: 29,
			OrderOps: 30, CondOrderFails: 31, CondOrderOks: 32, MemFetches: 33,
			L2Hits: 34, GRTDeposits: 35, GRTRemovals: 36,
		},
		NoC: noc.Stats{Packets: 37, Bytes: 38},
	}
	for i := range m.NoC.BytesByCat {
		m.NoC.BytesByCat[i], m.NoC.PacketsByCat[i] = uint64(40+i), uint64(50+i)
	}
	return m
}

// TestMeasurementEncodingPinned pins the payload Store writes for one
// fixed measurement under the current MeasurementKind. A change to
// Measurement.fields changes that payload, and fails here until
// MeasurementKind is bumped and the new kind's digest pinned: a store
// written under the old kind must read as misses, not decode its
// records into the wrong fields.
func TestMeasurementEncodingPinned(t *testing.T) {
	sum := sha256.Sum256(experiments.EncodeMeasurement(pinned()))
	got := hex.EncodeToString(sum[:])
	if want, ok := pinnedPayloads[experiments.MeasurementKind]; !ok || got != want {
		t.Fatalf("kind %s: payload digest %s, pinned %q; a changed layout needs a new MeasurementKind, pinned here",
			experiments.MeasurementKind, got, want)
	}
}

// FuzzLoad feeds Load arbitrary record bytes, each both as given and
// with the checksum Store appends, so that mutations reach the decoder
// past the checksum. Load must never panic, and a hit must be a record
// Store writes: the measurement, stored again, loads back with the same
// payload, and when the input's header is the one this binary writes,
// Store writes the input's bytes exactly, so that each measurement has
// one encoding. The seeds are a real record and the bad payloads, all
// without their checksum.
func FuzzLoad(f *testing.F) {
	m := measurement(f)
	st, path, rec := record(f, "k", m, nil)
	header := rec[:len(rec)-4-len(experiments.EncodeMeasurement(m))]
	f.Add(rec[:len(rec)-4])
	for _, tc := range badPayloads(f, m) {
		b := withPayload(rec, m, tc.payload)
		f.Add(b[:len(b)-4])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, b := range [][]byte{body, sealed(body)} {
			if err := os.WriteFile(path, b, 0o666); err != nil {
				t.Fatal(err)
			}
			got, hit := st.Load("k")
			if !hit {
				continue
			}
			st.Store("k", got)
			again, ok := st.Load("k")
			if !ok || !bytes.Equal(experiments.EncodeMeasurement(again), experiments.EncodeMeasurement(got)) {
				t.Fatalf("hit %+v, stored again, loads back %+v, %v", got, again, ok)
			}
			if written, err := os.ReadFile(path); err == nil && bytes.HasPrefix(b, header) && !bytes.Equal(written, b) {
				t.Fatalf("hit on % x; Store writes its measurement as % x", b, written)
			}
		}
	})
}

// TestLoadAllocs bounds a warm Load's allocations at 11, with the
// store reading into a reused buffer and building the record's path as
// one string. Reading with os.ReadFile, whose file handle and fresh
// buffer are allocated per record, made it 18, and hex-encoding the hash
// into a string and joining the path with filepath.Join 14.
func TestLoadAllocs(t *testing.T) {
	st, _, _ := record(t, "k", measurement(t), nil)
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := st.Load("k"); !ok {
			t.Fatal("miss")
		}
	})
	if allocs > 11 {
		t.Fatalf("a warm Load makes %v allocations, want at most 11", allocs)
	}
}

// BenchmarkLoad is the store tier's read path, the whole of a warm
// regeneration's per-job cost: one Load of a real measurement record
// of about 700 bytes (open, read, check and decode the file). B/op and allocs/op are one
// load's.
func BenchmarkLoad(b *testing.B) {
	st, _, _ := record(b, "k", measurement(b), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Load("k"); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkDecode is BenchmarkLoad's decode alone: the same record's
// bytes, in memory, decoded as Load decodes them once it has read the
// file. The difference between the two is the file's open, read and
// close.
func BenchmarkDecode(b *testing.B) {
	_, _, rec := record(b, "k", measurement(b), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := experiments.DecodeMeasurement(rec, "k"); !ok {
			b.Fatal("corrupt")
		}
	}
}
