// Package store is a crash-safe, on-disk content-addressed record
// store: the persistent tier behind the experiment engine's in-memory
// measurement memo, shared by every process that opens the same
// directory.
//
// Records are addressed by an opaque content key (the canonical
// simulation-spec key, for the engine) and stored one per file in a
// fixed binary layout: a header of strings (Schema, the key, a
// caller-chosen payload kind, and the writing binary's version,
// revision and Go version), the payload, and a CRC-32C (Castagnoli) of
// every earlier byte as the last four bytes. Integers and float bits
// are fixed-width little-endian words, strings a 32-bit length and
// their bytes (record.go). The payload is a field list the caller names
// once, in one function of a Codec: Put runs it with a Writer and Get
// with a Reader, so no struct's declaration order is part of the
// format. The layout under the store directory is
//
//	objects/<aa>/<sha256(key)>.rec   one record
//	tmp/tmp-*                        records being written
//
// where <aa> is the first byte of the key hash, git-style. The record
// files are the whole store: there is no index, no size bound and no
// background work. Put writes the file before returning. Get reads the
// key's file with four system calls (open, two reads, close) into a
// buffer reused across Gets, checks the checksum, and decodes the
// record in one bounds-checked pass.
//
// The design holds two contracts:
//
//   - Crash safety. Record files appear atomically (written to a
//     temporary file in tmp/, then renamed into objects/<aa>/ within the
//     same tree), so a reader — in this process or another — never
//     observes a torn record, and a record is on disk once Put returns.
//     A record that fails to read or decode (a crash mid-rename on a
//     non-atomic filesystem, bit rot, a truncated or extended file, a
//     schema from a future version, a foreign key or payload kind, a
//     payload the caller's field list does not read to its last byte)
//     is corrupt: it is counted, removed and read as a miss, and the
//     next Put regenerates it by re-simulating. Open removes the files
//     in tmp/ older than staleTemp, which only a crashed writer leaves,
//     and reads nothing else: writers create no other files, so the fan
//     directories hold only records. Files other binaries left beside
//     the records (temporary files, or the ".json" records of the
//     earlier format) are neither read nor removed.
//
//   - Cache semantics. A failed write is counted and costs only a later
//     miss. Concurrent opens of one directory are safe: writes are
//     atomic and idempotent (equal keys produce equal payloads for
//     deterministic simulations), and Open leaves a temp file younger
//     than staleTemp to the writer still renaming it.
//
// See OBSERVABILITY.md for the store metrics and DESIGN.md for where
// the tier sits in the engine stack.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"asymfence/internal/metrics"
)

// Schema is the record format tag, every record's first string.
// Records with any other schema are read as corrupt (and removed), so a
// future format can change shape without poisoning old binaries; the
// ".rec" extension keeps this format apart from the ".json" records of
// the one before it.
const Schema = "asymfence-store/v2"

// Options configure Open.
type Options struct {
	// Kind is the payload format tag written into every record's header
	// and required of every record read back (empty: "raw/v1").
	Kind string
	// Metrics, when non-nil, receives the store's counters (hits,
	// misses, writes, bytes written, write errors, corrupt records)
	// under the given scope. Nil disables them at zero cost.
	Metrics *metrics.Scope
	// WriteFile, when non-nil, replaces WriteFileAtomic as the record
	// persistence primitive. It is the seam tests use to inject disk
	// failures (internal/faults wraps it with deterministic write
	// errors, torn files and ENOSPC); production opens leave it nil.
	WriteFile func(path string, data []byte) error
}

// staleTemp is the age past which Open takes a file in tmp/ for a
// crashed writer's leftover and removes it. A live writer's temp file
// exists only for one write of about a kilobyte at most and a rename,
// far less than this.
const staleTemp = time.Hour

// WriteFileAtomic writes data to the record file path with the store's
// crash-safety discipline: a temporary file in the store's tmp
// directory, then a rename, so a reader never observes a torn file and
// a crash leaves at worst a "tmp-*" leftover that a later Open sweeps
// once it is stale. On any error it removes its temporary file.
// path must be a record path, <dir>/objects/<aa>/<name>: the temporary
// file goes in <dir>/tmp, in the same tree as the record.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Join(filepath.Dir(path), "..", "..", "tmp"), "tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// storeMetrics are the store's counters, registry handles that are all
// nil-safe: hits and misses count Get outcomes, writes and bytes the
// records persisted, writeErrors the Puts whose write failed, and
// corrupt the records a Get dropped because they failed to decode,
// payload included.
type storeMetrics struct {
	hits, misses, writes, bytes, writeErrors, corrupt *metrics.Counter
}

func newStoreMetrics(s *metrics.Scope) storeMetrics {
	return storeMetrics{
		hits:        s.Counter("hits"),
		misses:      s.Counter("misses"),
		writes:      s.Counter("writes"),
		bytes:       s.Counter("bytes"),
		writeErrors: s.Counter("write_errors"),
		corrupt:     s.Counter("corrupt"),
	}
}

// Store is an open store directory. All methods are safe for concurrent
// use. A nil *Store is valid and behaves as an always-miss, drop-writes
// store, so callers can thread an optional store without nil checks.
type Store struct {
	objects   string // the records' directory, <dir>/objects
	kind      string
	writeFile func(path string, data []byte) error
	mx        storeMetrics
}

// Open opens (creating if necessary) the store rooted at dir and
// removes the temporary files a crashed writer left in its tmp
// directory: those older than staleTemp, so that a Put another handle
// or process is making meanwhile keeps its file. It reads no record and
// lists no other directory.
func Open(dir string, o Options) (*Store, error) {
	if o.Kind == "" {
		o.Kind = "raw/v1"
	}
	if o.WriteFile == nil {
		o.WriteFile = WriteFileAtomic
	}
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o777); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	leftovers, err := os.ReadDir(tmp)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", tmp, err)
	}
	for _, f := range leftovers {
		if info, err := f.Info(); err == nil && time.Since(info.ModTime()) > staleTemp {
			os.Remove(filepath.Join(tmp, f.Name()))
		}
	}
	return &Store{objects: filepath.Join(dir, "objects"), kind: o.Kind, writeFile: o.WriteFile, mx: newStoreMetrics(o.Metrics)}, nil
}

// objectPath returns the record file path for a key,
// <dir>/objects/<xx>/<hash>.rec, where hash is the key's SHA-256 in hex
// and xx its first two digits. The digits are encoded into an array on
// the stack and the path concatenated in one expression, so building it
// allocates only the key's bytes to hash and the path string.
func (s *Store) objectPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	var hash [2 * sha256.Size]byte
	hex.Encode(hash[:], sum[:])
	const sep = string(filepath.Separator)
	return s.objects + sep + string(hash[:2]) + sep + string(hash[:]) + ".rec"
}

// readBufs hold the buffers Get reads records into. A measurement
// record is 500 bytes to about 1 KB; readFile grows a buffer that is
// too small, and the pool keeps the grown one.
var readBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// readFile appends the contents of the file at path to b. It makes the
// four system calls a record needs, open, read until read returns 0,
// and close, where os.ReadFile makes ten (it also switches the
// descriptor's blocking mode twice, tries to register it with the
// poller and stats it). It retries open and read on EINTR, as os does.
func readFile(path string, b []byte) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return b, err
	}
	defer syscall.Close(fd)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := syscall.Read(fd, b[len(b):cap(b)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil || n == 0 {
			return b, err
		}
		b = b[:len(b)+n]
	}
}

// Get reads key's record and runs fields over its payload with a
// Reader, reporting whether the record hit. It reads the file with four
// system calls (readFile) into a buffer that later Gets reuse, so
// fields may keep no reference into it (Reader.Str copies). A file that
// cannot be opened or read (none there, or a directory) is a plain
// miss. A record that fails to Decode — empty, truncated, damaged,
// wrong schema, kind or key, a payload fields does not read exactly —
// counts as corrupt and a miss, and is removed so a later Put
// regenerates it. After a miss, whatever fields stored means nothing.
func (s *Store) Get(key string, fields func(Codec)) bool {
	if s == nil {
		return false
	}
	path := s.objectPath(key)
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	b, err := readFile(path, (*buf)[:0])
	*buf = b
	if err != nil {
		s.mx.misses.Inc()
		return false
	}
	if !Decode(b, key, s.kind, fields) {
		os.Remove(path)
		s.mx.corrupt.Inc()
		s.mx.misses.Inc()
		return false
	}
	s.mx.hits.Inc()
	return true
}

// Put stores the payload fields writes under key and returns once the
// record is on disk or the write has failed. A failed write is counted
// as a write error and leaves the key a miss; the store is a cache, so
// nothing else is lost.
func (s *Store) Put(key string, fields func(Codec)) {
	if s == nil {
		return
	}
	b := encode(key, s.kind, fields)
	path := s.objectPath(key)
	err := os.MkdirAll(filepath.Dir(path), 0o777)
	if err == nil {
		err = s.writeFile(path, b)
	}
	if err != nil {
		s.mx.writeErrors.Inc()
		return
	}
	s.mx.writes.Inc()
	s.mx.bytes.Add(int64(len(b)))
}
