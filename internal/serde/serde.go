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
	// EncodePtr and DecodePtr, when set, are the same encoding reached
	// through a pointer: EncodePtr encodes *v, DecodePtr decodes into *v,
	// which must hold T's zero value, and reports the bytes consumed.
	// Neither retains v. A derived codec sets them, and PairCodec and the
	// style headers pass them through: a derived value form passes each
	// record through a pooled cell, which a record already in a slice does
	// not need. The bulk paths — EncodeAll, DecodeAllN, a shuffle writer's
	// per-record encode — go through EncodeAt and DecodeAt, which use them
	// when set.
	EncodePtr func(dst []byte, v *T) []byte
	DecodePtr func(src []byte, v *T) (int, error)
}

// EncodeAt appends the encoding of *v to dst, through the pointer form when
// the codec has one.
func (c Codec[T]) EncodeAt(dst []byte, v *T) []byte {
	if c.EncodePtr != nil {
		return c.EncodePtr(dst, v)
	}
	return c.Encode(dst, *v)
}

// DecodeAt decodes one value from the front of src into *v, which must hold
// T's zero value, through the pointer form when the codec has one.
func (c Codec[T]) DecodeAt(src []byte, v *T) (int, error) {
	if c.DecodePtr != nil {
		return c.DecodePtr(src, v)
	}
	val, n, err := c.Decode(src)
	if err != nil {
		return 0, err
	}
	*v = val
	return n, nil
}

// EncodeAll encodes every value back to back, the layout of a shuffle
// block or spill file.
func EncodeAll[T any](c Codec[T], dst []byte, vs []T) []byte {
	for i := range vs {
		dst = c.EncodeAt(dst, &vs[i])
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
	var zero T
	for len(src) > 0 {
		out = append(out, zero)
		n, err := c.DecodeAt(src, &out[len(out)-1])
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, errors.New("serde: decoder made no progress")
		}
		src = src[n:]
	}
	return out, nil
}
