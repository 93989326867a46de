package store

import (
	"encoding/json"
	"testing"
)

// TestReaderMatchesJSON reads single values with each of the Reader's
// value methods and with json.Unmarshal into the Go type the method
// stands for. A value the Reader accepts must be one json.Unmarshal
// accepts, with the same result, and every text json.Marshal writes
// for a value must be one the Reader accepts.
func TestReaderMatchesJSON(t *testing.T) {
	for _, text := range []string{
		"0", "7", "01", "-0", "-7", "+1", " 1", "1 ", "null", `"7"`,
		"255", "256", "2147483647", "2147483648", "-2147483648", "-2147483649",
		"9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "-9223372036854775809",
		"18446744073709551615", "18446744073709551616",
		"1.5", "0.1", "1e2", "1E2", "-1e-7", "1e-7", "5e+300", "1e21", "1e400",
		"1.", ".5", "-", "1e", "0x10",
		`""`, `"a b"`, `"\"\\\/\b\f\n\r\t"`, `"\"\\\b\f\n\r\t"`, "\"<&\u2028é\"",
		`"\u003c\u0026\u2028 é\u0001"`, `"\u00"`,
		`"\ud800"`, `"\ud83d\ude00"`, `"😀"`, `"\x"`, "\"\x01\"", "\"\xff\"", `"abc`, `"\"`,
	} {
		readsLikeJSON(t, text, func(r *Reader) uint64 { return r.Uint(64) })
		readsLikeJSON(t, text, func(r *Reader) uint8 { return uint8(r.Uint(8)) })
		readsLikeJSON(t, text, func(r *Reader) int64 { return r.Int(64) })
		readsLikeJSON(t, text, func(r *Reader) int32 { return int32(r.Int(32)) })
		readsLikeJSON(t, text, (*Reader).Float)
		readsLikeJSON(t, text, (*Reader).Str)
	}
}

func readsLikeJSON[T comparable](t *testing.T, text string, read func(*Reader) T) {
	t.Helper()
	r := &Reader{b: []byte(text)}
	got := read(r)
	ok := !r.bad && r.i == len(r.b)
	var want T
	err := json.Unmarshal([]byte(text), &want)
	if ok && (err != nil || got != want) {
		t.Errorf("%T: Reader reads %q as %v; json.Unmarshal: %v, %v", want, text, got, want, err)
	}
	if b, _ := json.Marshal(want); err == nil && string(b) == text && !ok {
		t.Errorf("%T: Reader rejects %q, which json.Marshal writes", want, text)
	}
}
