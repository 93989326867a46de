// Package store is a crash-safe, on-disk content-addressed record
// store: the persistent tier behind the experiment engine's in-memory
// measurement cache, shared by every process that opens the same
// directory.
//
// Records are addressed by an opaque content key (the canonical
// simulation-spec key, for the engine) and stored one per file as a
// versioned JSON envelope carrying the key, a caller-chosen payload
// kind, the writing binary's build provenance and the payload itself.
// The layout under the store directory is
//
//	objects/<aa>/<sha256(key)>.json   one envelope per record
//
// where <aa> is the first byte of the key hash, git-style. The files
// are the whole store: there is no index, no size bound and no
// background work. Get reads the key's file; Put writes it before
// returning.
//
// The design holds two contracts:
//
//   - Crash safety. Record files appear atomically (written to a
//     temporary file in the same directory, then renamed), so a reader
//     — in this process or another — never observes a torn record, and
//     a record is on disk once Put returns. Truncated or corrupt files
//     (a crash mid-rename on a non-atomic filesystem, bit rot, a schema
//     from a future version, a foreign key or payload kind) are treated
//     as misses and removed; they can always be regenerated by
//     re-simulating. Open removes leftover temporary files without
//     reading any record.
//
//   - Cache semantics. A failed write is counted and costs only a later
//     miss. Concurrent opens of one directory are safe: writes are
//     atomic and idempotent (equal keys produce equal payloads for
//     deterministic simulations).
//
// See OBSERVABILITY.md for the store metrics and DESIGN.md for where
// the tier sits in the engine stack.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"asymfence/internal/buildinfo"
	"asymfence/internal/metrics"
)

// Schema is the record envelope's format tag. Envelopes with any other
// schema value are ignored (and removed) on read, so a future format
// can change shape without poisoning old binaries.
const Schema = "asymfence-store/v1"

// Envelope is the on-disk record format: a versioned wrapper around an
// opaque payload.
type Envelope struct {
	// Schema is the envelope format tag (Schema).
	Schema string `json:"schema"`
	// Key is the record's full content key (the filename holds only its
	// hash; Get checks the key against this field).
	Key string `json:"key"`
	// Kind is the caller-declared payload format tag; Get filters on it
	// so payload formats can version independently of the envelope.
	Kind string `json:"kind"`
	// Build is the provenance of the binary that wrote the record.
	Build buildinfo.Info `json:"build"`
	// Payload is the record body, opaque to the store.
	Payload json.RawMessage `json:"payload"`
}

// Options configure Open.
type Options struct {
	// Kind is the payload format tag written into every envelope and
	// required of every record read back (empty: "raw/v1").
	Kind string
	// Metrics, when non-nil, receives the store's counters (hits,
	// misses, writes, bytes written, write errors, corrupt records)
	// under the given scope. Nil disables them at zero cost; Stats is
	// always counted.
	Metrics *metrics.Scope
	// WriteFile, when non-nil, replaces WriteFileAtomic as the record
	// persistence primitive. It is the seam tests use to inject disk
	// failures (internal/faults wraps it with deterministic write
	// errors, torn files and ENOSPC); production opens leave it nil.
	WriteFile func(path string, data []byte) error
}

// WriteFileAtomic writes data to path with the store's crash-safety
// discipline: a temporary file in the same directory, then a rename, so
// a reader never observes a torn file and a crash leaves at worst a
// "tmp-*" leftover that the next Open sweeps.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	return os.Rename(tmp.Name(), path)
}

// Stats is a point-in-time traffic snapshot of one handle.
type Stats struct {
	// Hits/Misses count Get outcomes; Writes counts records persisted;
	// WriteErrors counts Puts whose write failed; Corrupt counts
	// unreadable records dropped on Get.
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"write_errors"`
	Corrupt     int64 `json:"corrupt"`
}

// storeMetrics are the optional registry handles; all nil-safe.
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
	dir       string
	kind      string
	writeFile func(path string, data []byte) error
	mx        storeMetrics

	hits, misses, writes, writeErrors, corrupt atomic.Int64
}

// Open opens (creating if necessary) the store rooted at dir and
// removes temporary files a crashed writer left behind. It reads no
// record.
func Open(dir string, o Options) (*Store, error) {
	if o.Kind == "" {
		o.Kind = "raw/v1"
	}
	if o.WriteFile == nil {
		o.WriteFile = WriteFileAtomic
	}
	objects := filepath.Join(dir, "objects")
	if err := os.MkdirAll(objects, 0o777); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	fans, err := os.ReadDir(objects)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		fanDir := filepath.Join(objects, fan.Name())
		files, err := os.ReadDir(fanDir)
		if err != nil {
			return nil, fmt.Errorf("store: scanning %s: %w", fanDir, err)
		}
		for _, f := range files {
			if filepath.Ext(f.Name()) != ".json" {
				os.Remove(filepath.Join(fanDir, f.Name()))
			}
		}
	}
	return &Store{dir: dir, kind: o.Kind, writeFile: o.WriteFile, mx: newStoreMetrics(o.Metrics)}, nil
}

// keyHash returns the content address of a key.
func keyHash(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// objectPath returns the record file path for a key.
func (s *Store) objectPath(key string) string {
	hash := keyHash(key)
	return filepath.Join(s.dir, "objects", hash[:2], hash+".json")
}

// Get returns the payload stored under key, or ok=false on a miss. A
// record that fails to read or parse — truncated, corrupt, wrong kind,
// wrong key — counts as a miss and is removed so a later Put
// regenerates it.
func (s *Store) Get(key string) (json.RawMessage, bool) {
	if s == nil {
		return nil, false
	}
	path := s.objectPath(key)
	b, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		s.mx.misses.Inc()
		return nil, false
	}
	var env Envelope
	if err := json.Unmarshal(b, &env); err != nil || env.Schema != Schema || env.Kind != s.kind || env.Key != key {
		os.Remove(path)
		s.corrupt.Add(1)
		s.mx.corrupt.Inc()
		s.misses.Add(1)
		s.mx.misses.Inc()
		return nil, false
	}
	s.hits.Add(1)
	s.mx.hits.Inc()
	return env.Payload, true
}

// Put stores payload under key and returns once the record is on disk
// or the write has failed. A failed write is counted in WriteErrors and
// leaves the key a miss; the store is a cache, so nothing else is lost.
func (s *Store) Put(key string, payload json.RawMessage) {
	if s == nil {
		return
	}
	b, err := json.Marshal(&Envelope{
		Schema:  Schema,
		Key:     key,
		Kind:    s.kind,
		Build:   buildinfo.Get(),
		Payload: payload,
	})
	if err == nil {
		path := s.objectPath(key)
		if err = os.MkdirAll(filepath.Dir(path), 0o777); err == nil {
			err = s.writeFile(path, b)
		}
	}
	if err != nil {
		s.writeErrors.Add(1)
		s.mx.writeErrors.Inc()
		return
	}
	s.writes.Add(1)
	s.mx.writes.Inc()
	s.mx.bytes.Add(int64(len(b)))
}

// Stats returns the handle's traffic counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrors.Load(),
		Corrupt:     s.corrupt.Load(),
	}
}
