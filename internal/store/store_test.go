package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"asymfence/internal/faults"
	"asymfence/internal/metrics"
)

// open opens a test store with the test payload kind unless overridden.
func open(t *testing.T, dir string, o Options) *Store {
	t.Helper()
	if o.Kind == "" {
		o.Kind = "test/v1"
	}
	s, err := Open(dir, o)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// object returns the on-disk path of key's record.
func object(s *Store, key string) string { return s.objectPath(key) }

// records counts the record files on disk under dir.
func records(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

func TestPutGetRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})

	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	payload := json.RawMessage(`{"cycles":12345}`)
	s.Put("cilk:fib@WS+/p8", payload)

	got, ok := s.Get("cilk:fib@WS+/p8")
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get after Put = %q, %v; want payload hit", got, ok)
	}
	st := s.Stats()
	if st.Writes != 1 || st.Hits != 1 || st.Misses != 1 || st.WriteErrors != 0 {
		t.Fatalf("stats = %+v, want 1 write, 1 hit, 1 miss", st)
	}
	if n := records(t, dir); n != 1 {
		t.Fatalf("%d record files on disk, want 1", n)
	}
}

// TestPutIsOnDiskWhenItReturns is the synchronous-write contract: once
// Put returns, the record file exists and an independent handle on the
// same directory hits it, with nothing flushed or closed in between.
func TestPutIsOnDiskWhenItReturns(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key-%d", i)
		s.Put(key, json.RawMessage(fmt.Sprintf(`{"v":%d}`, i)))
		if _, err := os.Stat(object(s, key)); err != nil {
			t.Fatalf("record %s not on disk after Put returned: %v", key, err)
		}
		r := open(t, dir, Options{})
		if got, ok := r.Get(key); !ok || string(got) != fmt.Sprintf(`{"v":%d}`, i) {
			t.Fatalf("second handle Get(%s) = %q, %v; want a hit", key, got, ok)
		}
	}
}

func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 5; i++ {
		s.Put(fmt.Sprintf("key-%d", i), json.RawMessage(fmt.Sprintf(`{"v":%d}`, i)))
	}

	r := open(t, dir, Options{})
	for i := 0; i < 5; i++ {
		got, ok := r.Get(fmt.Sprintf("key-%d", i))
		if !ok || string(got) != fmt.Sprintf(`{"v":%d}`, i) {
			t.Fatalf("reopened Get(key-%d) = %q, %v", i, got, ok)
		}
	}
	if n := records(t, dir); n != 5 {
		t.Fatalf("%d record files on disk, want 5", n)
	}
}

func TestCorruptAndTruncatedRecordsRecover(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	s.Put("good", json.RawMessage(`{"v":1}`))
	s.Put("truncated", json.RawMessage(`{"v":2}`))
	s.Put("garbage", json.RawMessage(`{"v":3}`))

	// Truncate one record mid-envelope and overwrite another with junk.
	tr := object(s, "truncated")
	b, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tr, b[:len(b)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(object(s, "garbage"), []byte("not json at all"), 0o666); err != nil {
		t.Fatal(err)
	}

	// Same handle: the damaged records degrade to misses and are removed.
	if _, ok := s.Get("truncated"); ok {
		t.Fatal("truncated record served as a hit")
	}
	if _, ok := s.Get("garbage"); ok {
		t.Fatal("corrupt record served as a hit")
	}
	if got, ok := s.Get("good"); !ok || string(got) != `{"v":1}` {
		t.Fatalf("intact record lost: %q, %v", got, ok)
	}
	if st := s.Stats(); st.Corrupt != 2 {
		t.Fatalf("stats after damage = %+v, want 2 corrupt", st)
	}
	if n := records(t, dir); n != 1 {
		t.Fatalf("%d record files on disk after damage, want 1", n)
	}
	if _, err := os.Stat(tr); !os.IsNotExist(err) {
		t.Fatalf("truncated record file not removed: %v", err)
	}

	// Fresh open over a damaged directory also recovers.
	s2 := open(t, dir, Options{})
	s2.Put("truncated", json.RawMessage(`{"v":22}`))
	if got, ok := s2.Get("truncated"); !ok || string(got) != `{"v":22}` {
		t.Fatalf("regenerated record = %q, %v", got, ok)
	}
}

func TestOpenCleansDamageAndTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	s.Put("keep", json.RawMessage(`{"v":1}`))
	s.Put("broken", json.RawMessage(`{"v":2}`))

	if err := os.Truncate(object(s, "broken"), 7); err != nil {
		t.Fatal(err)
	}
	// A crashed writer leaves a temp file behind; Open must sweep it.
	tmp := filepath.Join(dir, "objects", "ab")
	os.MkdirAll(tmp, 0o777)
	if err := os.WriteFile(filepath.Join(tmp, "tmp-12345"), []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir, Options{})
	if _, err := os.Stat(filepath.Join(tmp, "tmp-12345")); !os.IsNotExist(err) {
		t.Fatal("leftover temp file survived Open")
	}
	// Open reads no record: the damaged one stays until a Get finds it.
	if st, n := r.Stats(), records(t, dir); st.Corrupt != 0 || n != 2 {
		t.Fatalf("after open: stats %+v, %d record files; want 0 corrupt, 2 files", st, n)
	}
	if got, ok := r.Get("keep"); !ok || string(got) != `{"v":1}` {
		t.Fatalf("intact record lost across damaged open: %q, %v", got, ok)
	}
	if _, ok := r.Get("broken"); ok {
		t.Fatal("truncated record served as a hit")
	}
	if st, n := r.Stats(), records(t, dir); st.Corrupt != 1 || n != 1 {
		t.Fatalf("after Get: stats %+v, %d record files; want 1 corrupt, 1 file", st, n)
	}
}

func TestKindMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Kind: "old/v1"})
	s.Put("k", json.RawMessage(`{"v":1}`))

	r := open(t, dir, Options{Kind: "new/v2"})
	if _, ok := r.Get("k"); ok {
		t.Fatal("record of a different kind served as a hit")
	}
	if st, n := r.Stats(), records(t, dir); st.Corrupt != 1 || n != 0 {
		t.Fatalf("stats %+v, %d record files; want the old-kind record dropped", st, n)
	}
}

func TestConcurrentOpenAndUse(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, Options{})
	b := open(t, dir, Options{})

	var wg sync.WaitGroup
	for g, s := range []*Store{a, b} {
		wg.Add(1)
		go func(g int, s *Store) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%d", i)
				s.Put(key, json.RawMessage(fmt.Sprintf(`{"v":%d}`, i)))
				if v, ok := s.Get(key); !ok || string(v) != fmt.Sprintf(`{"v":%d}`, i) {
					t.Errorf("handle %d: Get(%s) = %q, %v", g, key, v, ok)
					return
				}
			}
		}(g, s)
	}
	wg.Wait()

	// Both handles wrote identical content; the directory holds one copy
	// of each record and a third open hits all of them.
	if n := records(t, dir); n != 50 {
		t.Fatalf("after concurrent writers, %d record files, want 50", n)
	}
	c := open(t, dir, Options{})
	for i := 0; i < 50; i++ {
		if _, ok := c.Get(fmt.Sprintf("key-%d", i)); !ok {
			t.Fatalf("third handle missed key-%d", i)
		}
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	s.Put("k", json.RawMessage(`1`))
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil store reported a hit")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil store stats = %+v", st)
	}
}

func TestMetricsAccounting(t *testing.T) {
	reg := metrics.NewRegistry()
	s := open(t, t.TempDir(), Options{Metrics: reg.Scope("store")})
	s.Put("k", json.RawMessage(`{"v":1}`))
	s.Get("k")
	s.Get("absent")

	info, err := os.Stat(object(s, "k"))
	if err != nil {
		t.Fatal(err)
	}
	js := string(reg.JSON())
	for _, want := range []string{`"store.hits": 1`, `"store.misses": 1`, `"store.writes": 1`,
		fmt.Sprintf(`"store.bytes": %d`, info.Size())} {
		if !strings.Contains(js, want) {
			t.Fatalf("metrics snapshot missing %q:\n%s", want, js)
		}
	}
}

// TestWriteFaultsDegradeToMisses drives the store through its write-
// fault seam: injected write errors, ENOSPC and torn files must only
// ever cost re-simulation (misses) — a Get either returns the exact
// bytes that were Put or misses, never wrong data, on both the live
// handle and a fresh open.
func TestWriteFaultsDegradeToMisses(t *testing.T) {
	dir := t.TempDir()
	wf := faults.NewWriteFaults(13, faults.DefaultFS())
	s := open(t, dir, Options{WriteFile: wf.Wrap(WriteFileAtomic)})

	want := map[string]string{}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("key-%d", i)
		payload := fmt.Sprintf(`{"v":%d}`, i)
		want[key] = payload
		s.Put(key, json.RawMessage(payload))
	}
	if st := s.Stats(); st.WriteErrors == 0 || st.Writes+st.WriteErrors != 64 {
		t.Fatalf("stats after 64 faulted puts = %+v; want some write errors, every put counted once", st)
	}

	hits := 0
	for key, payload := range want {
		if got, ok := s.Get(key); ok {
			hits++
			if string(got) != payload {
				t.Fatalf("live Get(%s) = %q, want %q or a miss", key, got, payload)
			}
		}
	}
	if hits == 0 || hits == len(want) {
		t.Fatalf("live hits = %d of %d; fault mix should lose some writes but not all", hits, len(want))
	}

	r := open(t, dir, Options{})
	rehits := 0
	for key, payload := range want {
		if got, ok := r.Get(key); ok {
			rehits++
			if string(got) != payload {
				t.Fatalf("reopened Get(%s) = %q, want %q or a miss", key, got, payload)
			}
		}
	}
	if rehits == 0 {
		t.Fatal("no records survived the fault schedule; expected some clean writes")
	}
	t.Logf("64 faulted puts: %d live hits, %d after reopen, %d corrupt dropped",
		hits, rehits, s.Stats().Corrupt+r.Stats().Corrupt)
}
