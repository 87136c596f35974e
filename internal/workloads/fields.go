package workloads

import (
	"strings"
	"unicode/utf8"
)

// Byte classes of appendFields' scan table.
const (
	wordByte  = iota // part of a field
	spaceByte        // one of strings.Fields' ASCII separators
	wideByte         // starts or continues a multi-byte rune
)

// byteClass classifies every byte value for appendFields: the six ASCII
// white-space bytes strings.Fields splits on, the non-ASCII bytes, and the
// rest.
var byteClass = func() (t [256]uint8) {
	for c := utf8.RuneSelf; c < 256; c++ {
		t[c] = wideByte
	}
	for _, c := range "\t\n\v\f\r " {
		t[c] = spaceByte
	}
	return t
}()

// appendFields appends the fields of line to dst and returns the extended
// slice: exactly what append(dst, strings.Fields(line)...) returns, without
// the slice strings.Fields builds. The fields are views of line. An ASCII
// line is scanned once through byteClass; a line with a non-ASCII byte is
// split by strings.Fields itself, whose Unicode white space (U+0085, U+00A0,
// U+3000, …) and handling of invalid UTF-8 that keeps. dst[:len(dst)] is
// never written.
func appendFields(dst []string, line string) []string {
	n := len(dst)
	for i := 0; i < len(line); {
		for i < len(line) && byteClass[line[i]] == spaceByte {
			i++
		}
		start := i
		for i < len(line) && byteClass[line[i]] == wordByte {
			i++
		}
		if i < len(line) && byteClass[line[i]] == wideByte {
			return append(dst[:n], strings.Fields(line)...)
		}
		if i > start {
			dst = append(dst, line[start:i])
		}
	}
	return dst
}
