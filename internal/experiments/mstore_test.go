package experiments_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"asymfence/internal/experiments"
	"asymfence/internal/experiments/runner"
	"asymfence/internal/fence"
	"asymfence/internal/store"
)

// measurement simulates one small ustm job and returns its measurement,
// a real record body of about 1 KB.
func measurement(tb testing.TB) *experiments.Measurement {
	tb.Helper()
	ms, err := eng.RunSpecs(ctx, []runner.Spec{{Group: "ustm", App: "Counter", Design: fence.SPlus, Cores: 4, Horizon: 3000}})
	if err != nil {
		tb.Fatal(err)
	}
	return ms[0]
}

// openStore opens a measurement store in a fresh directory.
func openStore(tb testing.TB) (*experiments.MeasurementStore, string) {
	tb.Helper()
	dir := tb.TempDir()
	st, err := experiments.OpenMeasurementStore(dir, experiments.MeasurementStoreOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return st, dir
}

// record stores m under key in a fresh measurement store and returns
// the store, the record file's path and its bytes.
func record(tb testing.TB, key string, m *experiments.Measurement) (*experiments.MeasurementStore, string, []byte) {
	tb.Helper()
	st, dir := openStore(tb)
	st.Store(key, m)
	files, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.json"))
	if err != nil || len(files) != 1 {
		tb.Fatalf("record files %v, %v; want one", files, err)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		tb.Fatal(err)
	}
	return st, files[0], b
}

// withPayload returns record bytes rec with the payload replaced, and
// the envelope kept byte for byte in the writer's field order; ""
// drops the payload field.
func withPayload(tb testing.TB, rec []byte, payload string) []byte {
	tb.Helper()
	head, _, ok := bytes.Cut(rec, []byte(`,"payload":`))
	if !ok {
		tb.Fatalf("no payload in %s", rec)
	}
	if payload == "" {
		return fmt.Appendf(nil, "%s}", head)
	}
	return fmt.Appendf(nil, `%s,"payload":%s}`, head, payload)
}

// badPayloads are measurement/v1 payloads that must read as corrupt:
// missing ("" drops the field), null, mistyped, short of fields (Agg
// included, which a figure would dereference), or with a field or a
// map key more than json.Marshal writes.
func badPayloads(tb testing.TB, m *experiments.Measurement) []struct{ name, payload string } {
	tb.Helper()
	marshal := func(m experiments.Measurement) string {
		b, err := json.Marshal(&m)
		if err != nil {
			tb.Fatal(err)
		}
		return string(b)
	}
	noAgg, oneEvent, agg := *m, *m, *m.Agg
	noAgg.Agg = nil
	agg.Events = map[int32]uint64{9: 1}
	oneEvent.Agg = &agg
	whole := marshal(*m)
	return []struct{ name, payload string }{
		{"missing", ""},
		{"null", `null`},
		{"mistyped", `{"Cycles":"12345"}`},
		{"empty", `{}`},
		{"commits only", `{"Commits":1}`},
		{"null Agg", marshal(noAgg)},
		{"extra field", whole[:len(whole)-1] + `,"Extra":1}`},
		{"duplicated field", `{"Group":"x",` + whole[1:]},
		{"duplicated key", strings.Replace(marshal(oneEvent), `{"9":1}`, `{"9":1,"9":1}`, 1)},
	}
}

// TestLoadBadPayloadIsCorrupt rewrites a stored record into a valid
// measurement/v1 envelope whose payload is missing, null, mistyped,
// short of fields or with one too many; the envelope keeps the
// writer's bytes, so the payload is the only fault. Each must read as
// corrupt: a miss, counted in Corrupt and not in Hits, with the file
// deleted, so the job re-simulates and the store's hits agree with the
// engine's.
func TestLoadBadPayloadIsCorrupt(t *testing.T) {
	m := measurement(t)
	for _, tc := range badPayloads(t, m) {
		t.Run(tc.name, func(t *testing.T) {
			st, path, rec := record(t, "k", m)
			if _, ok := st.Load("k"); !ok {
				t.Fatal("intact record missed")
			}
			if err := os.WriteFile(path, withPayload(t, rec, tc.payload), 0o666); err != nil {
				t.Fatal(err)
			}

			if got, ok := st.Load("k"); ok {
				t.Fatalf("payload %q served as a hit: %+v", tc.payload, got)
			}
			if s := st.Stats(); s.Hits != 1 || s.Corrupt != 1 || s.Misses != 1 {
				t.Fatalf("stats %+v; want the intact hit only, 1 corrupt, 1 miss", s)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt record not deleted: %v", err)
			}
		})
	}
}

// filled returns a measurement with every field set by reflection,
// recursing into nested structs, pointers, arrays and maps, so a field
// added to the record later is set too. Each kind of scalar draws
// distinct values from its own sequence, chosen to stress the
// encoding: MaxUint64 and down (a narrower field gets its own
// maximum), negative integers (map keys included), floats json.Marshal
// writes in exponent form, strings it must escape. Every map gets size
// entries, and HaltCycle is -1, as for a core that ran to the horizon.
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
// equal, and json.Unmarshal reads the same file to the same value. A
// field added to Measurement or a type it holds, without decoder
// support, fails here instead of turning every store cold.
func TestMeasurementRoundTrip(t *testing.T) {
	for _, size := range []int{0, 3} {
		m := filled(t, size)
		key := "ustm:<List>&\u2028@S+"
		st, _, rec := record(t, key, m)
		got, ok := st.Load(key)
		if !ok || !reflect.DeepEqual(got, m) {
			t.Fatalf("maps of %d: Load = %+v, %v; want %+v", size, got, ok, m)
		}
		var env store.Envelope[*experiments.Measurement]
		if err := json.Unmarshal(rec, &env); err != nil || !reflect.DeepEqual(env.Payload, m) {
			t.Fatalf("maps of %d: json.Unmarshal = %+v, %v; want %+v", size, env.Payload, err, m)
		}
	}
}

// FuzzLoadMatchesJSON holds Load to encoding/json, the reference: for
// any record bytes, a hit must be a record json.Unmarshal reads with
// the same schema, kind and key and an equal measurement. And a record
// that is byte for byte what Store writes for a whole measurement (Agg
// and its maps present) must hit.
func FuzzLoadMatchesJSON(f *testing.F) {
	m := measurement(f)
	st, path, rec := record(f, "k", m)
	f.Add(rec)
	for _, tc := range badPayloads(f, m) {
		f.Add(withPayload(f, rec, tc.payload))
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		if err := os.WriteFile(path, rec, 0o666); err != nil {
			t.Fatal(err)
		}
		got, hit := st.Load("k")
		var env store.Envelope[*experiments.Measurement]
		err := json.Unmarshal(rec, &env)
		if hit && (err != nil || env.Schema != store.Schema || env.Kind != experiments.MeasurementKind ||
			env.Key != "k" || !reflect.DeepEqual(got, env.Payload)) {
			t.Fatalf("Load hit %+v; json.Unmarshal: %+v, %v", got, env, err)
		}
		if hit || err != nil || env.Payload == nil || env.Payload.Agg == nil ||
			env.Payload.Agg.Events == nil || env.Payload.Agg.FenceSiteStall == nil {
			return
		}
		if b, err := json.Marshal(&env); err == nil && bytes.Equal(b, rec) && env.Key == "k" &&
			env.Schema == store.Schema && env.Kind == experiments.MeasurementKind {
			t.Fatalf("Load missed a record as Store writes it: %s", rec)
		}
	})
}

// TestLoadAllocs bounds a warm Load's allocations at the 14 it makes
// with the store reading into a reused buffer, 8 of them the decode's
// (BenchmarkDecode). Reading with os.ReadFile, whose file handle and
// fresh buffer are allocated per record, made it 18.
func TestLoadAllocs(t *testing.T) {
	st, _, _ := record(t, "k", measurement(t))
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := st.Load("k"); !ok {
			t.Fatal("miss")
		}
	})
	if allocs > 14 {
		t.Fatalf("a warm Load makes %v allocations, want at most 14", allocs)
	}
}

// BenchmarkLoad is the store tier's read path, the whole of a warm
// regeneration's per-job cost: one Load of a real ~1 KB measurement
// record (open, read and decode the file). B/op and allocs/op are one
// load's.
func BenchmarkLoad(b *testing.B) {
	st, _, _ := record(b, "k", measurement(b))
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
	_, _, rec := record(b, "k", measurement(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := experiments.DecodeMeasurement(rec, "k"); !ok {
			b.Fatal("corrupt")
		}
	}
}
