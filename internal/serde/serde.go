package serde

import (
	"bytes"
	"errors"
	"fmt"
)

// Style selects one of the three serialization strategies.
type Style int

// Serialization strategies.
const (
	Java Style = iota
	Kryo
	TypeInfo
)

// ParseStyle maps configuration strings ("java", "kryo", "typeinfo") to a
// Style, defaulting to Java like Spark does.
func ParseStyle(s string) Style {
	switch s {
	case "kryo":
		return Kryo
	case "typeinfo", "flink":
		return TypeInfo
	default:
		return Java
	}
}

// String implements fmt.Stringer.
func (s Style) String() string {
	switch s {
	case Java:
		return "java"
	case Kryo:
		return "kryo"
	case TypeInfo:
		return "typeinfo"
	}
	return fmt.Sprintf("style(%d)", int(s))
}

// ErrShortBuffer reports a truncated encoding.
var ErrShortBuffer = errors.New("serde: short buffer")

// Codec encodes and decodes values of one concrete type, append-style:
// Encode appends the encoding of v to dst (caller-owned, usually pooled via
// memory.BufPool) and returns the extended slice; Decode decodes one value
// from the front of src and reports the number of bytes consumed. Neither
// direction allocates per record once the destination buffer has warmed up.
//
// A string Decode returns is a view of src, not a copy (see Aliases): src
// must never be written while the value is in use. Decode a block through
// DecodeAll or DecodeAllN, which make that hold for any src.
type Codec[T any] struct {
	Encode func(dst []byte, v T) []byte
	Decode func(src []byte) (T, int, error)
	// Fallbacks counts the parts of T this codec hands to encoding/gob
	// because they have no structural encoding (see Of); zero for every
	// codec built from registered, scalar and derived parts. Engines add it
	// to metrics.JobMetrics.CodecFallbacks where they resolve a codec.
	Fallbacks int
	// Aliases reports that T has a string part, so a value Decode returns
	// may point into src. It propagates through every composition the way
	// Fallbacks does; gob parts and registered codecs without it copy.
	Aliases bool
}

// EncodeAll encodes every value back to back, the layout of a shuffle
// block or spill file.
func EncodeAll[T any](c Codec[T], dst []byte, vs []T) []byte {
	for _, v := range vs {
		dst = c.Encode(dst, v)
	}
	return dst
}

// DecodeAll decodes the whole buffer back into values. The values never
// alias src, so the caller may reuse or release it as soon as this returns.
func DecodeAll[T any](c Codec[T], src []byte) ([]T, error) {
	return DecodeAllN(c, src, 0)
}

// DecodeAllN is DecodeAll for a caller that knows how many values src holds
// (a shuffle block carries its record count): the result is allocated once at
// that size instead of grown by doubling. count is a hint — 0 means unknown,
// and a wrong one costs only the growth it failed to save.
//
// It is the entry point of every block decode. When the codec Aliases, src
// is first copied once, and the values' strings are views of that copy: one
// allocation and one sequential copy a block instead of one allocation per
// string field, the way Spark's and Flink's binary rows read fields in
// place. Nothing but the decoded values ever refers to the copy, so it is
// as immutable as a string. A decoded value keeps its block's copy alive
// for as long as it is referenced.
func DecodeAllN[T any](c Codec[T], src []byte, count int) ([]T, error) {
	if c.Aliases && len(src) > 0 {
		src = bytes.Clone(src)
	}
	var out []T
	if count > 0 {
		out = make([]T, 0, min(count, len(src))) // a value takes at least a byte
	}
	for len(src) > 0 {
		v, n, err := c.Decode(src)
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, errors.New("serde: decoder made no progress")
		}
		out = append(out, v)
		src = src[n:]
	}
	return out, nil
}
