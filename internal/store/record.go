package store

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"

	"asymfence/internal/buildinfo"
)

// castagnoli is the CRC-32C table of the checksum that ends each record.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Codec is one direction of a payload's field list. A payload names its
// fields once, in one function of a Codec that passes each field's
// address, in order; Put runs that function with a *Writer, which
// appends the values, and Get with a *Reader, which stores the values
// it reads. The two directions therefore cannot disagree on the layout.
// *Writer and *Reader are the only implementations.
type Codec interface {
	Byte(*uint8)
	Uint(*uint64)
	Int(*int64)
	Float(*float64)
	Str(*string)
	codec()
}

// Writer appends fields to a record: integers and float bits as
// fixed-width little-endian words, a byte as itself, a string as its
// length (a 32-bit word) and its bytes.
type Writer struct{ b []byte }

// Byte appends *v.
func (w *Writer) Byte(v *uint8) { w.b = append(w.b, *v) }

// Uint appends *v.
func (w *Writer) Uint(v *uint64) { w.u64(*v) }

// Int appends *v.
func (w *Writer) Int(v *int64) { w.u64(uint64(*v)) }

// Float appends the bits of *v.
func (w *Writer) Float(v *float64) { w.u64(math.Float64bits(*v)) }

// Str appends *v.
func (w *Writer) Str(v *string) { w.str(*v) }

func (*Writer) codec() {}

// Bytes returns the bytes written so far.
func (w *Writer) Bytes() []byte { return w.b }

func (w *Writer) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

func (w *Writer) str(s string) {
	w.b = binary.LittleEndian.AppendUint32(w.b, uint32(len(s)))
	w.b = append(w.b, s...)
}

// Reader reads a record's fields back in the order a Writer wrote them,
// each read checked against the bytes left. A failure is sticky: the
// reader skips to the end of its input, so every later read fails at
// once and stores zero. A payload's field list therefore reads straight
// through and checks nothing; Decode reports whether the record held.
type Reader struct {
	b   []byte
	i   int
	bad bool
}

// fail marks the record corrupt.
func (r *Reader) fail() {
	r.bad = true
	r.i = len(r.b)
}

// Byte reads a byte into *v.
func (r *Reader) Byte(v *uint8) {
	if b := r.next(1); b != nil {
		*v = b[0]
	}
}

// Uint reads a word into *v.
func (r *Reader) Uint(v *uint64) { *v = r.u64() }

// Int reads a word into *v.
func (r *Reader) Int(v *int64) { *v = int64(r.u64()) }

// Float reads a word's bits into *v.
func (r *Reader) Float(v *float64) { *v = math.Float64frombits(r.u64()) }

// Str reads a string into *v. It copies: Get reads every record into a
// buffer that later Gets reuse.
func (r *Reader) Str(v *string) { *v = string(r.str()) }

func (*Reader) codec() {}

// next consumes the next n bytes and returns them, or fails and returns
// nil when fewer are left.
func (r *Reader) next(n int) []byte {
	if n < 0 || n > len(r.b)-r.i {
		r.fail()
		return nil
	}
	r.i += n
	return r.b[r.i-n : r.i]
}

func (r *Reader) u32() uint32 {
	if b := r.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) u64() uint64 {
	if b := r.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// str reads a string and returns its bytes, a slice of the input.
func (r *Reader) str() []byte { return r.next(int(r.u32())) }

// count reads a count of entries of size bytes each and fails, reading
// 0, unless that many bytes are left: no count read from a record makes
// a caller allocate more than the record holds.
func (r *Reader) count(size int) int {
	n := int(r.u32())
	if n < 0 || n > (len(r.b)-r.i)/size {
		r.fail()
		return 0
	}
	return n
}

// Counts runs a map of counts through c: its entry count, then each key
// (a 64-bit word) and count in ascending key order, so that a map has
// one encoding. A Reader makes the map, and fails the record on a key
// that does not ascend or does not fit in K.
func Counts[K int32 | int](c Codec, m *map[K]uint64) {
	switch c := c.(type) {
	case *Writer:
		keys := make([]K, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(len(keys)))
		for _, k := range keys {
			c.u64(uint64(k))
			c.u64((*m)[k])
		}
	case *Reader:
		n := c.count(16)
		*m = make(map[K]uint64, n)
		var last int64
		for i := 0; i < n; i++ {
			k := int64(c.u64())
			if int64(K(k)) != k || i > 0 && k <= last {
				c.fail()
				return
			}
			(*m)[K(k)] = c.u64()
			last = k
		}
	}
}

// encode returns the record Put writes for key: the header (Schema,
// key, kind and the writing binary's version, revision and Go version,
// as strings), the payload fields writes, then the CRC-32C of every
// byte before it, as a 32-bit word.
func encode(key, kind string, fields func(Codec)) []byte {
	w := &Writer{b: make([]byte, 0, 1<<10)}
	bi := buildinfo.Get()
	for _, s := range []string{Schema, key, kind, bi.Version, bi.Revision, bi.GoVersion} {
		w.str(s)
	}
	fields(w)
	return binary.LittleEndian.AppendUint32(w.b, crc32.Checksum(w.b, castagnoli))
}

// Decode reads record bytes b as Put writes them for key under payload
// kind kind, handing the payload to fields, and reports whether the
// whole record held: its checksum matches, its header names Schema, key
// and kind, and fields read the payload to its last byte.
func Decode(b []byte, key, kind string, fields func(Codec)) bool {
	n := len(b) - 4
	if n < 0 || crc32.Checksum(b[:n], castagnoli) != binary.LittleEndian.Uint32(b[n:]) {
		return false
	}
	r := &Reader{b: b[:n]}
	for _, s := range []string{Schema, key, kind} {
		if string(r.str()) != s {
			r.fail()
		}
	}
	for range 3 { // the writing binary's build
		r.str()
	}
	fields(r)
	return !r.bad && r.i == n
}
