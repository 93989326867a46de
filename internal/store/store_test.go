package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

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

// get reads key's payload, which the tests write as {"v":N}, back as
// its JSON text.
func get(s *Store, key string) (string, bool) {
	var v int64
	if !s.Get(key, func(r *Reader) {
		r.Open('{')
		v = r.Field("v").Int(64)
		r.Close('}')
	}) {
		return "", false
	}
	return fmt.Sprintf(`{"v":%d}`, v), true
}

// onlyRecords fails the test unless every fan directory under dir holds
// only ".json" records. Writers create their temporary files in tmp/,
// and that is what lets Open sweep tmp/ alone.
func onlyRecords(t *testing.T, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if filepath.Ext(f) != ".json" {
			t.Fatalf("fan directory holds %s, which is not a record", f)
		}
	}
}

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

	if _, ok := get(s, "missing"); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	payload := json.RawMessage(`{"v":12345}`)
	s.Put("cilk:fib@WS+/p8", payload)

	got, ok := get(s, "cilk:fib@WS+/p8")
	if !ok || got != string(payload) {
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
		if got, ok := get(r, key); !ok || got != fmt.Sprintf(`{"v":%d}`, i) {
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
		got, ok := get(r, fmt.Sprintf("key-%d", i))
		if !ok || got != fmt.Sprintf(`{"v":%d}`, i) {
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
	if _, ok := get(s, "truncated"); ok {
		t.Fatal("truncated record served as a hit")
	}
	if _, ok := get(s, "garbage"); ok {
		t.Fatal("corrupt record served as a hit")
	}
	if got, ok := get(s, "good"); !ok || got != `{"v":1}` {
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
	if got, ok := get(s2, "truncated"); !ok || got != `{"v":22}` {
		t.Fatalf("regenerated record = %q, %v", got, ok)
	}
}

// TestRecordNotAsWrittenIsCorrupt rewrites a record into forms Put
// never writes: an empty file, which reads without error, and forms
// json.Unmarshal reads. Get reads only the writer's form, so each is a
// corrupt miss and its file is removed, for the next Put to write it
// again as the writer does.
func TestRecordNotAsWrittenIsCorrupt(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rewrite func([]byte) ([]byte, error)
	}{
		{"empty", func([]byte) ([]byte, error) { return nil, nil }},
		{"trailing newline", func(b []byte) ([]byte, error) { return append(b, '\n'), nil }},
		{"indented", func(b []byte) ([]byte, error) {
			var out bytes.Buffer
			err := json.Indent(&out, b, "", "  ")
			return out.Bytes(), err
		}},
		{"reordered", func(b []byte) ([]byte, error) {
			var env map[string]json.RawMessage
			if err := json.Unmarshal(b, &env); err != nil {
				return nil, err
			}
			return json.Marshal(env)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, t.TempDir(), Options{})
			s.Put("k", json.RawMessage(`{"v":1}`))
			path := object(s, "k")
			b, err := os.ReadFile(path)
			if err == nil {
				b, err = tc.rewrite(b)
			}
			if err == nil {
				err = os.WriteFile(path, b, 0o666)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := get(s, "k"); ok {
				t.Fatalf("rewritten record served as a hit: %q", got)
			}
			if _, err := os.Stat(path); s.Stats().Corrupt != 1 || !os.IsNotExist(err) {
				t.Fatalf("stats %+v, file %v; want 1 corrupt and the file removed", s.Stats(), err)
			}
		})
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
	// A crashed writer leaves a temp file behind in tmp/, where writers
	// create them; once it is stale, Open must sweep it. A fresh one may
	// be a live writer's, about to be renamed: Open must keep it.
	tmp := filepath.Join(dir, "tmp")
	crashed, live := filepath.Join(tmp, "tmp-12345"), filepath.Join(tmp, "tmp-67890")
	for _, f := range []string{crashed, live} {
		if err := os.WriteFile(f, []byte("partial"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTemp)
	if err := os.Chtimes(crashed, old, old); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir, Options{})
	if _, err := os.Stat(crashed); !os.IsNotExist(err) {
		t.Fatal("stale leftover temp file survived Open")
	}
	if _, err := os.Stat(live); err != nil {
		t.Fatalf("fresh temp file did not survive Open: %v", err)
	}
	// Open reads no record: the damaged one stays until a Get finds it.
	if st, n := r.Stats(), records(t, dir); st.Corrupt != 0 || n != 2 {
		t.Fatalf("after open: stats %+v, %d record files; want 0 corrupt, 2 files", st, n)
	}
	if got, ok := get(r, "keep"); !ok || got != `{"v":1}` {
		t.Fatalf("intact record lost across damaged open: %q, %v", got, ok)
	}
	if _, ok := get(r, "broken"); ok {
		t.Fatal("truncated record served as a hit")
	}
	if st, n := r.Stats(), records(t, dir); st.Corrupt != 1 || n != 1 {
		t.Fatalf("after Get: stats %+v, %d record files; want 1 corrupt, 1 file", st, n)
	}
}

// TestPutsRacingOpensAllLand: Opens of the directory on one goroutine
// while a handle Puts on another must not sweep the temp file of a Put
// between its write and its rename. Every Put lands.
func TestPutsRacingOpensAllLand(t *testing.T) {
	const puts = 500
	dir := t.TempDir()
	s := open(t, dir, Options{})
	stop := make(chan struct{})
	opened := make(chan int)
	go func() {
		n := 0
		for ; ; n++ {
			select {
			case <-stop:
				opened <- n
				return
			default:
			}
			if _, err := Open(dir, Options{}); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 0; i < puts; i++ {
		s.Put(fmt.Sprintf("key-%d", i), json.RawMessage(fmt.Sprintf(`{"v":%d}`, i)))
	}
	close(stop)
	n := <-opened
	if st := s.Stats(); st.WriteErrors != 0 || st.Writes != puts {
		t.Fatalf("%d Puts racing %d Opens: stats %+v; want every Put written", puts, n, st)
	}
	if n := records(t, dir); n != puts {
		t.Fatalf("%d record files on disk, want %d", n, puts)
	}
}

// TestWriteFileAtomicFailedRenameLeavesNoTemp: a rename that fails
// (here, into a fan directory that does not exist) returns its error
// and removes the temp file, which a later Open would not sweep until
// it went stale.
func TestWriteFileAtomicFailedRenameLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	open(t, dir, Options{})
	if err := WriteFileAtomic(filepath.Join(dir, "objects", "zz", "zz.json"), []byte("{}")); err == nil {
		t.Fatal("WriteFileAtomic into a missing fan directory succeeded")
	}
	if left, err := os.ReadDir(filepath.Join(dir, "tmp")); err != nil || len(left) != 0 {
		t.Fatalf("tmp/ after a failed rename holds %v (%v); want nothing", left, err)
	}
}

// TestLargeRecordRoundTrips: a record larger than a read buffer's
// initial size is read whole, and so is a small one read after it into
// the grown buffer.
func TestLargeRecordRoundTrips(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	long := strings.Repeat("k", 64<<10)
	s.Put(long, json.RawMessage(`{"v":7}`))
	s.Put("short", json.RawMessage(`{"v":8}`))
	if got, ok := get(s, long); !ok || got != `{"v":7}` {
		t.Fatalf("Get of a %d-byte record = %q, %v; want a hit", len(long), got, ok)
	}
	if got, ok := get(s, "short"); !ok || got != `{"v":8}` {
		t.Fatalf("Get after the large record = %q, %v; want a hit", got, ok)
	}
}

// TestDirectoryAtRecordPathIsMiss: a directory where a record's file
// belongs cannot be read, so it is a plain miss, neither corrupt nor
// removed.
func TestDirectoryAtRecordPathIsMiss(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	path := object(s, "k")
	if err := os.MkdirAll(path, 0o777); err != nil {
		t.Fatal(err)
	}
	if got, ok := get(s, "k"); ok {
		t.Fatalf("directory served as a hit: %q", got)
	}
	if st := s.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats %+v; want 1 miss, 0 corrupt", st)
	}
	if info, err := os.Stat(path); err != nil || !info.IsDir() {
		t.Fatalf("directory at the record path: %v, %v; want it kept", info, err)
	}
}

// TestDecodedStringsOutliveTheReadBuffer: Get reads every record into a
// reused buffer, so a string a hit decoded must not change when later
// Gets read other records into the same buffer.
func TestDecodedStringsOutliveTheReadBuffer(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	name := func(i int) string { return strings.Repeat(string(rune('a'+i)), 32) }
	for i := 0; i < 4; i++ {
		s.Put(fmt.Sprint(i), json.RawMessage(fmt.Sprintf(`{"s":%q}`, name(i))))
	}
	got := make([]string, 4)
	for i := range got {
		if !s.Get(fmt.Sprint(i), func(r *Reader) {
			r.Open('{')
			got[i] = r.Field("s").Str()
			r.Close('}')
		}) {
			t.Fatalf("Get(%d) missed", i)
		}
	}
	for i, g := range got {
		if g != name(i) {
			t.Fatalf("string decoded from record %d reads %q after later Gets; want %q", i, g, name(i))
		}
	}
}

func TestKindMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Kind: "old/v1"})
	s.Put("k", json.RawMessage(`{"v":1}`))

	r := open(t, dir, Options{Kind: "new/v2"})
	if _, ok := get(r, "k"); ok {
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
				if v, ok := get(s, key); !ok || v != fmt.Sprintf(`{"v":%d}`, i) {
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
	onlyRecords(t, dir)
	c := open(t, dir, Options{})
	for i := 0; i < 50; i++ {
		if _, ok := get(c, fmt.Sprintf("key-%d", i)); !ok {
			t.Fatalf("third handle missed key-%d", i)
		}
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	s.Put("k", json.RawMessage(`1`))
	if _, ok := get(s, "k"); ok {
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
	get(s, "k")
	get(s, "absent")

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
	onlyRecords(t, dir)

	hits := 0
	for key, payload := range want {
		if got, ok := get(s, key); ok {
			hits++
			if got != payload {
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
		if got, ok := get(r, key); ok {
			rehits++
			if got != payload {
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
