package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"asymfence/internal/faults"
	"asymfence/internal/metrics"
)

// open opens a test store with the test payload kind, and counters in
// a registry of its own, unless overridden.
func open(t *testing.T, dir string, o Options) *Store {
	t.Helper()
	if o.Kind == "" {
		o.Kind = "test/v1"
	}
	if o.Metrics == nil {
		o.Metrics = metrics.NewRegistry().Scope("store")
	}
	s, err := Open(dir, o)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// tally is a handle's traffic as its registry counts it.
type tally struct {
	Hits, Misses, Writes, WriteErrors, Corrupt int64
}

// tallyOf reads s's counters from the registry open gave it.
func tallyOf(s *Store) tally {
	return tally{
		Hits:        s.mx.hits.Value(),
		Misses:      s.mx.misses.Value(),
		Writes:      s.mx.writes.Value(),
		WriteErrors: s.mx.writeErrors.Value(),
		Corrupt:     s.mx.corrupt.Value(),
	}
}

// object returns the on-disk path of key's record.
func object(s *Store, key string) string { return s.objectPath(key) }

// put stores v under key, as the one word of the record's payload.
func put(s *Store, key string, v int64) { s.Put(key, func(c Codec) { c.Int(&v) }) }

// get reads key's payload, one word, back.
func get(s *Store, key string) (int64, bool) {
	var v int64
	ok := s.Get(key, func(c Codec) { c.Int(&v) })
	return v, ok
}

// onlyRecords fails the test unless every fan directory under dir holds
// only ".rec" records. Writers create their temporary files in tmp/,
// and that is what lets Open sweep tmp/ alone.
func onlyRecords(t *testing.T, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if filepath.Ext(f) != ".rec" {
			t.Fatalf("fan directory holds %s, which is not a record", f)
		}
	}
}

// records counts the record files on disk under dir.
func records(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.rec"))
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
	put(s, "cilk:fib@WS+/p8", 12345)

	got, ok := get(s, "cilk:fib@WS+/p8")
	if !ok || got != 12345 {
		t.Fatalf("Get after Put = %d, %v; want payload hit", got, ok)
	}
	st := tallyOf(s)
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
		put(s, key, int64(i))
		if _, err := os.Stat(object(s, key)); err != nil {
			t.Fatalf("record %s not on disk after Put returned: %v", key, err)
		}
		r := open(t, dir, Options{})
		if got, ok := get(r, key); !ok || got != int64(i) {
			t.Fatalf("second handle Get(%s) = %d, %v; want a hit", key, got, ok)
		}
	}
}

func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 5; i++ {
		put(s, fmt.Sprintf("key-%d", i), int64(i))
	}

	r := open(t, dir, Options{})
	for i := 0; i < 5; i++ {
		got, ok := get(r, fmt.Sprintf("key-%d", i))
		if !ok || got != int64(i) {
			t.Fatalf("reopened Get(key-%d) = %d, %v", i, got, ok)
		}
	}
	if n := records(t, dir); n != 5 {
		t.Fatalf("%d record files on disk, want 5", n)
	}
}

func TestCorruptAndTruncatedRecordsRecover(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	put(s, "good", 1)
	put(s, "truncated", 2)
	put(s, "garbage", 3)

	// Truncate one record mid-envelope and overwrite another with junk.
	tr := object(s, "truncated")
	b, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tr, b[:len(b)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(object(s, "garbage"), []byte("not a record at all"), 0o666); err != nil {
		t.Fatal(err)
	}

	// Same handle: the damaged records degrade to misses and are removed.
	if _, ok := get(s, "truncated"); ok {
		t.Fatal("truncated record served as a hit")
	}
	if _, ok := get(s, "garbage"); ok {
		t.Fatal("corrupt record served as a hit")
	}
	if got, ok := get(s, "good"); !ok || got != 1 {
		t.Fatalf("intact record lost: %d, %v", got, ok)
	}
	if st := tallyOf(s); st.Corrupt != 2 {
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
	put(s2, "truncated", 22)
	if got, ok := get(s2, "truncated"); !ok || got != 22 {
		t.Fatalf("regenerated record = %d, %v", got, ok)
	}
}

// sealed returns body with the checksum Put appends: a record that
// passes the checksum whatever body holds.
func sealed(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// TestRecordNotAsWrittenIsCorrupt rewrites a record into forms Put
// never writes: an empty file, which reads without error, a byte
// appended, and edits re-checksummed so that only the layout is wrong:
// two spaces inserted after the schema, the header's key and kind
// swapped, the earlier format's schema, a byte past the payload, and a
// payload cut short. Each is a corrupt miss and its file is removed,
// for the next Put to write it again.
func TestRecordNotAsWrittenIsCorrupt(t *testing.T) {
	header := func(strs ...string) []byte {
		w := &Writer{}
		for _, s := range strs {
			w.str(s)
		}
		return w.b
	}
	for _, tc := range []struct {
		name    string
		rewrite func(body []byte) []byte // body: the record without its checksum
	}{
		{"empty", func([]byte) []byte { return nil }},
		{"trailing newline", func(b []byte) []byte { return append(sealed(b), '\n') }},
		{"indented", func(b []byte) []byte {
			h := header(Schema)
			return sealed(append(append(header(Schema), "  "...), b[len(h):]...))
		}},
		{"reordered", func(b []byte) []byte {
			h := header(Schema, "k", "test/v1")
			return sealed(append(header(Schema, "test/v1", "k"), b[len(h):]...))
		}},
		{"old schema", func(b []byte) []byte {
			h := header(Schema)
			return sealed(append(header("asymfence-store/v1"), b[len(h):]...))
		}},
		{"trailing byte", func(b []byte) []byte { return sealed(append(b, 0)) }},
		{"short payload", func(b []byte) []byte { return sealed(b[:len(b)-1]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, t.TempDir(), Options{})
			put(s, "k", 1)
			path := object(s, "k")
			b, err := os.ReadFile(path)
			if err == nil {
				err = os.WriteFile(path, tc.rewrite(b[:len(b)-4]), 0o666)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := get(s, "k"); ok {
				t.Fatalf("rewritten record served as a hit: %d", got)
			}
			if _, err := os.Stat(path); tallyOf(s).Corrupt != 1 || !os.IsNotExist(err) {
				t.Fatalf("stats %+v, file %v; want 1 corrupt and the file removed", tallyOf(s), err)
			}
		})
	}
}

// TestEditedLengthsAndKeysAreCorrupt re-checksums a record after edits
// the writer never makes to its lengths and map keys: a key repeated,
// out of order or too wide for its type, an entry count or a string
// length that runs past the end. Each is a corrupt miss, and no length
// makes Get allocate more than the record holds: a count of 65,536
// entries, honoured, would make a map of about a megabyte.
func TestEditedLengthsAndKeysAreCorrupt(t *testing.T) {
	in := map[int32]uint64{-1: 10, 2: 20}
	counts := func(m *map[int32]uint64) func(Codec) { return func(c Codec) { Counts(c, m) } }
	s := open(t, t.TempDir(), Options{})
	s.Put("k", counts(&in))
	path := object(s, "k")
	rec, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out map[int32]uint64
	if !s.Get("k", counts(&out)) || !maps.Equal(in, out) {
		t.Fatalf("intact record read back %v; want %v", out, in)
	}
	body := rec[:len(rec)-4]
	header := body[:len(body)-(4+2*16)] // the payload: a count and two entries
	payload := func(n uint32, kv ...int64) []byte {
		w := &Writer{b: binary.LittleEndian.AppendUint32(bytes.Clone(header), n)}
		for _, v := range kv {
			w.u64(uint64(v))
		}
		return sealed(w.b)
	}
	if !bytes.Equal(payload(2, -1, 10, 2, 20), rec) {
		t.Fatal("the test's layout of the payload is not the writer's")
	}
	keyPastEnd := bytes.Clone(body)
	binary.LittleEndian.PutUint32(keyPastEnd[4+len(Schema):], uint32(len(body)))
	for _, tc := range []struct {
		name string
		rec  []byte
	}{
		{"key repeated", payload(2, 2, 10, 2, 20)},
		{"keys out of order", payload(2, 2, 20, -1, 10)},
		{"key too wide", payload(2, -1, 10, 1<<40, 20)},
		{"count past the end", payload(1<<16, -1, 10, 2, 20)},
		{"string past the end", sealed(keyPastEnd)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.rec, 0o666); err != nil {
				t.Fatal(err)
			}
			corrupt := tallyOf(s).Corrupt
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			hit := s.Get("k", counts(&out))
			runtime.ReadMemStats(&after)
			if hit || tallyOf(s).Corrupt != corrupt+1 {
				t.Fatalf("edited record: hit %v (%v), stats %+v; want a corrupt miss", hit, out, tallyOf(s))
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
				t.Fatalf("Get of a %d-byte record allocated %d bytes", len(tc.rec), n)
			}
		})
	}
}

func TestOpenCleansDamageAndTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	put(s, "keep", 1)
	put(s, "broken", 2)

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
	if st, n := tallyOf(r), records(t, dir); st.Corrupt != 0 || n != 2 {
		t.Fatalf("after open: stats %+v, %d record files; want 0 corrupt, 2 files", st, n)
	}
	if got, ok := get(r, "keep"); !ok || got != 1 {
		t.Fatalf("intact record lost across damaged open: %d, %v", got, ok)
	}
	if _, ok := get(r, "broken"); ok {
		t.Fatal("truncated record served as a hit")
	}
	if st, n := tallyOf(r), records(t, dir); st.Corrupt != 1 || n != 1 {
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
		put(s, fmt.Sprintf("key-%d", i), int64(i))
	}
	close(stop)
	n := <-opened
	if st := tallyOf(s); st.WriteErrors != 0 || st.Writes != puts {
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
	if err := WriteFileAtomic(filepath.Join(dir, "objects", "zz", "zz.rec"), []byte("{}")); err == nil {
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
	put(s, long, 7)
	put(s, "short", 8)
	if got, ok := get(s, long); !ok || got != 7 {
		t.Fatalf("Get of a %d-byte record = %d, %v; want a hit", len(long), got, ok)
	}
	if got, ok := get(s, "short"); !ok || got != 8 {
		t.Fatalf("Get after the large record = %d, %v; want a hit", got, ok)
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
		t.Fatalf("directory served as a hit: %d", got)
	}
	if st := tallyOf(s); st.Misses != 1 || st.Corrupt != 0 {
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
		v := name(i)
		s.Put(fmt.Sprint(i), func(c Codec) { c.Str(&v) })
	}
	got := make([]string, 4)
	for i := range got {
		if !s.Get(fmt.Sprint(i), func(c Codec) { c.Str(&got[i]) }) {
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
	put(s, "k", 1)

	r := open(t, dir, Options{Kind: "new/v2"})
	if _, ok := get(r, "k"); ok {
		t.Fatal("record of a different kind served as a hit")
	}
	if st, n := tallyOf(r), records(t, dir); st.Corrupt != 1 || n != 0 {
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
				put(s, key, int64(i))
				if v, ok := get(s, key); !ok || v != int64(i) {
					t.Errorf("handle %d: Get(%s) = %d, %v", g, key, v, ok)
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
	put(s, "k", 1)
	if _, ok := get(s, "k"); ok {
		t.Fatal("nil store reported a hit")
	}
}

func TestMetricsAccounting(t *testing.T) {
	reg := metrics.NewRegistry()
	s := open(t, t.TempDir(), Options{Metrics: reg.Scope("store")})
	put(s, "k", 1)
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

	want := map[string]int64{}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("key-%d", i)
		want[key] = int64(i)
		put(s, key, int64(i))
	}
	if st := tallyOf(s); st.WriteErrors == 0 || st.Writes+st.WriteErrors != 64 {
		t.Fatalf("stats after 64 faulted puts = %+v; want some write errors, every put counted once", st)
	}
	onlyRecords(t, dir)

	hits := 0
	for key, payload := range want {
		if got, ok := get(s, key); ok {
			hits++
			if got != payload {
				t.Fatalf("live Get(%s) = %d, want %d or a miss", key, got, payload)
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
				t.Fatalf("reopened Get(%s) = %d, want %d or a miss", key, got, payload)
			}
		}
	}
	if rehits == 0 {
		t.Fatal("no records survived the fault schedule; expected some clean writes")
	}
	t.Logf("64 faulted puts: %d live hits, %d after reopen, %d corrupt dropped",
		hits, rehits, tallyOf(s).Corrupt+tallyOf(r).Corrupt)
}
