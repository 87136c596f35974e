package serde

import (
	"errors"
	"fmt"
	"sync/atomic"
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
type Codec[T any] struct {
	Encode func(dst []byte, v T) []byte
	Decode func(src []byte) (T, int, error)
	// Fallbacks counts the parts of T this codec hands to encoding/gob
	// because they have no structural encoding (see Of); zero for every
	// codec built from registered, scalar and derived parts. Engines add it
	// to metrics.JobMetrics.CodecFallbacks where they resolve a codec.
	Fallbacks int
}

// legacyAlloc, when set, makes Append and EncodeAll emulate the
// allocate-per-record Encode surface this API replaced: every record is
// encoded into a fresh heap object and copied into the destination. Only
// the raw-speed experiment (ext9) flips it, to measure what the
// append-style redesign bought; it is not meant for real workloads.
var legacyAlloc atomic.Bool

// SetLegacyAlloc toggles the legacy allocate-per-record emulation and
// returns the previous setting. Benchmark plumbing only.
func SetLegacyAlloc(on bool) bool {
	return legacyAlloc.Swap(on)
}

// Append appends one record's encoding to dst — the choke point the shuffle
// writers encode through, so the legacy-allocation emulation has exactly one
// place to intercept.
func Append[T any](c Codec[T], dst []byte, v T) []byte {
	if legacyAlloc.Load() {
		return append(dst, c.Encode(nil, v)...)
	}
	return c.Encode(dst, v)
}

// EncodeAll encodes every value back to back, the layout of a shuffle
// block or spill file.
func EncodeAll[T any](c Codec[T], dst []byte, vs []T) []byte {
	if legacyAlloc.Load() {
		for _, v := range vs {
			dst = append(dst, c.Encode(nil, v)...)
		}
		return dst
	}
	for _, v := range vs {
		dst = c.Encode(dst, v)
	}
	return dst
}

// DecodeAll decodes the whole buffer back into values.
func DecodeAll[T any](c Codec[T], src []byte) ([]T, error) {
	var out []T
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
