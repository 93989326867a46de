package store

import (
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Reader decodes one record in a single forward pass over the bytes
// json.Marshal wrote for it, with no reflection. It reads the writer's
// form: every field, in declaration order and under the name
// json.Marshal gives it, no whitespace, integers without fraction or
// exponent. Anything else — a missing, extra, reordered or duplicated
// field, a value of the wrong type or out of range, invalid UTF-8 —
// fails the read.
//
// A failure is sticky: the reader skips to the end of its input, so
// every later read fails at once, returns a zero value and ends any
// More loop. A payload's decode method therefore reads straight through
// and checks nothing; Decode reports whether the whole record held.
type Reader struct {
	b     []byte
	i     int
	first bool // no value read yet in the innermost object or array
	bad   bool
}

// Fail marks the record corrupt, for checks a payload makes itself.
func (r *Reader) Fail() {
	r.bad = true
	r.i = len(r.b)
}

// next consumes c, the next byte of the input, or fails.
func (r *Reader) next(c byte) {
	if !r.skip(c) {
		r.Fail()
	}
}

// Open consumes an object's '{' or an array's '['.
func (r *Reader) Open(c byte) {
	r.next(c)
	r.first = true
}

// Close consumes the '}' or ']' that ends the innermost object or
// array.
func (r *Reader) Close(c byte) {
	r.next(c)
	r.first = false
}

// More reports whether the innermost object or array, ended by c,
// holds another member.
func (r *Reader) More(c byte) bool {
	return r.i < len(r.b) && r.b[r.i] != c
}

// Elem consumes the separator before an array's next element and
// returns r for the element's read.
func (r *Reader) Elem() *Reader {
	if r.first {
		r.first = false
	} else {
		r.next(',')
	}
	return r
}

// Field consumes the separator and the name before an object's next
// member, which must be name, and returns r for the value's read.
func (r *Reader) Field(name string) *Reader {
	r.Elem().next('"')
	if end := r.i + len(name); end <= len(r.b) && string(r.b[r.i:end]) == name {
		r.i = end
	} else {
		r.Fail()
	}
	r.next('"')
	r.next(':')
	return r
}

// Key reads the name of a map member whose Go key is a signed integer
// of the given bit size, as json.Marshal writes it: "-12":.
func (r *Reader) Key(bits int) int64 {
	r.Elem().next('"')
	k := r.Int(bits)
	r.next('"')
	r.next(':')
	return k
}

// digits reads an unsigned decimal integer of at most max: "0" or a
// nonzero digit and more digits.
func (r *Reader) digits(max uint64) uint64 {
	start := r.i
	if !r.run() || r.b[start] == '0' && r.i > start+1 {
		r.Fail()
		return 0
	}
	var n uint64
	for _, c := range r.b[start:r.i] {
		d := uint64(c - '0')
		if n > (max-d)/10 {
			r.Fail()
			return 0
		}
		n = n*10 + d
	}
	return n
}

// Uint reads an unsigned integer of the given bit size.
func (r *Reader) Uint(bits int) uint64 {
	return r.digits(1<<bits - 1)
}

// Int reads a signed integer of the given bit size.
func (r *Reader) Int(bits int) int64 {
	max := uint64(1)<<(bits-1) - 1
	if r.skip('-') {
		return -int64(r.digits(max + 1))
	}
	return int64(r.digits(max))
}

// Float reads a JSON number as a float64, as encoding/json does: the
// number's grammar, then strconv.ParseFloat.
func (r *Reader) Float() float64 {
	start := r.i
	r.skip('-')
	if !r.skip('0') && !r.run() {
		r.Fail()
	}
	if r.skip('.') && !r.run() {
		r.Fail()
	}
	if r.skip('e') || r.skip('E') {
		if !r.skip('+') {
			r.skip('-')
		}
		if !r.run() {
			r.Fail()
		}
	}
	if r.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(r.b[start:r.i]), 64)
	if err != nil {
		r.Fail()
	}
	return f
}

// skip consumes c if it is the next byte.
func (r *Reader) skip(c byte) bool {
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// run consumes a run of decimal digits and reports whether it was
// nonempty.
func (r *Reader) run() bool {
	start := r.i
	for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i > start
}

// Str reads a string. It returns a copy: Get reads every record into
// a buffer that later Gets reuse.
func (r *Reader) Str() string {
	return string(r.unquote())
}

// unquote reads a string and returns its contents: a slice of the
// input when it holds no escape, else an unescaped copy.
func (r *Reader) unquote() []byte {
	r.next('"')
	start, ascii := r.i, true
	for ; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; {
		case c == '"':
			s := r.b[start:r.i]
			r.i++
			if !ascii && !utf8.Valid(s) {
				r.Fail()
				return nil
			}
			return s
		case c == '\\':
			return r.unescape(append([]byte(nil), r.b[start:r.i]...))
		case c < ' ':
			r.Fail()
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	r.Fail()
	return nil
}

// unescape finishes a string whose contents so far are s, from the
// escape at r.i. It accepts every escape JSON defines except UTF-16
// surrogates, which json.Marshal never writes.
func (r *Reader) unescape(s []byte) []byte {
	const escapes, unescaped = `"\/bfnrt`, "\"\\/\b\f\n\r\t"
	for r.i < len(r.b) && r.b[r.i] != '"' {
		c := r.b[r.i]
		r.i++
		if c != '\\' {
			if c < ' ' {
				r.Fail()
			}
			s = append(s, c)
			continue
		}
		if r.i < len(r.b) {
			if k := strings.IndexByte(escapes, r.b[r.i]); k >= 0 {
				s = append(s, unescaped[k])
				r.i++
				continue
			}
		}
		if r.i+5 <= len(r.b) && r.b[r.i] == 'u' {
			u, err := strconv.ParseUint(string(r.b[r.i+1:r.i+5]), 16, 16)
			if err == nil && !utf16.IsSurrogate(rune(u)) {
				s = utf8.AppendRune(s, rune(u))
				r.i += 5
				continue
			}
		}
		r.Fail()
	}
	r.next('"')
	if !utf8.Valid(s) {
		r.Fail()
	}
	return s
}

// expect reads a string and fails unless it is s.
func (r *Reader) expect(s string) {
	if string(r.unquote()) != s {
		r.Fail()
	}
}
