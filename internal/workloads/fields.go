package workloads

import (
	"encoding/binary"
	"math/bits"
	"strings"
	"unicode/utf8"
	"unsafe"
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
// the slice strings.Fields builds. The fields are views of line. The line is
// read eight bytes at a time: a lane is flagged when its byte is below 0x21
// or at least 0x80 — a superset of the separators and the non-ASCII bytes —
// and only a flagged byte is looked up in byteClass, so a word's ordinary
// bytes cost no branch of their own. A line with a non-ASCII byte is split
// by strings.Fields itself, whose Unicode white space (U+0085, U+00A0,
// U+3000, …) and handling of invalid UTF-8 that keeps. dst[:len(dst)] is
// never written.
func appendFields(dst []string, line string) []string {
	n := len(dst)
	start := 0 // where the field being scanned begins
	for i := 0; i < len(line); i += 8 {
		var w uint64
		if i+8 <= len(line) {
			w = binary.LittleEndian.Uint64(unsafe.Slice(unsafe.StringData(line[i:]), 8))
		} else {
			tail := [8]byte{'x', 'x', 'x', 'x', 'x', 'x', 'x', 'x'} // unflagged padding
			copy(tail[:], line[i:])
			w = binary.LittleEndian.Uint64(tail[:])
		}
		for m := flagged(w); m != 0; m &= m - 1 {
			j := i + bits.TrailingZeros64(m)>>3
			switch byteClass[line[j]] {
			case spaceByte:
				if j > start {
					dst = append(dst, line[start:j])
				}
				start = j + 1
			case wideByte:
				return append(dst[:n], strings.Fields(line)...)
			}
		}
	}
	if start < len(line) {
		dst = append(dst, line[start:])
	}
	return dst
}

// flagged sets bit 7 of every lane of w whose byte is below 0x21 or at
// least 0x80, and clears every other bit. Adding 0x5F to a lane's low seven
// bits carries into bit 7 exactly when they are at least 0x21, and never
// out of the lane.
func flagged(w uint64) uint64 {
	const low7, hi, add = 0x7F7F7F7F7F7F7F7F, 0x8080808080808080, 0x5F5F5F5F5F5F5F5F
	return (w | ^((w & low7) + add)) & hi
}
