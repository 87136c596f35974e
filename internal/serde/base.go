package serde

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// javaHeaderFor fabricates the per-record overhead the Java strategy pays:
// a type-descriptor string plus an 8-byte object header. The descriptor is
// written (not just sized) so the cost is real bytes on the wire.
func javaHeaderFor(typeName string) []byte {
	h := binary.AppendUvarint(nil, uint64(len(typeName)))
	h = append(h, typeName...)
	h = append(h, 0xCA, 0xFE, 0xBA, 0xBE, 0, 0, 0, 1) // object header stand-in
	return h
}

// wrap applies the per-record overhead of the style around a schema
// encoder: Java writes the fabricated descriptor, Kryo a 1-byte class tag,
// TypeInfo nothing. A pointer form of base gets the same header.
func wrap[T any](style Style, typeName string, tag byte, base Codec[T]) Codec[T] {
	var hdr []byte
	switch style {
	case Java:
		hdr = javaHeaderFor(typeName)
	case Kryo:
		hdr = []byte{tag}
	default:
		return base
	}
	// check vets the header in front of src; Java's is only skipped.
	check := func(src []byte) error {
		if len(src) < len(hdr) {
			return ErrShortBuffer
		}
		if style == Kryo && src[0] != tag {
			return fmt.Errorf("serde: kryo tag mismatch: got %#x want %#x", src[0], tag)
		}
		return nil
	}
	c := Codec[T]{
		Encode: func(dst []byte, v T) []byte {
			return base.Encode(append(dst, hdr...), v)
		},
		Decode: func(src []byte) (T, int, error) {
			if err := check(src); err != nil {
				var zero T
				return zero, 0, err
			}
			v, n, err := base.Decode(src[len(hdr):])
			return v, n + len(hdr), err
		},
		Fallbacks: base.Fallbacks,
		Aliases:   base.Aliases,
	}
	if base.EncodePtr != nil {
		c.EncodePtr = func(dst []byte, v *T) []byte {
			return base.EncodePtr(append(dst, hdr...), v)
		}
		c.DecodePtr = func(src []byte, v *T) (int, error) {
			if err := check(src); err != nil {
				return 0, err
			}
			n, err := base.DecodePtr(src[len(hdr):], v)
			return n + len(hdr), err
		}
	}
	return c
}

// Class tags for the Kryo strategy.
const (
	tagString byte = iota + 1
	tagInt64
	tagFloat64
	tagBool
	tagBytes
	tagPair
	tagSlice
	tagGob
	tagStruct
	tagMap
	tagUint64
	tagFloat32
)

// rawString encodes a varint length followed by the bytes, and decodes a
// view of them: the string points into src (see Codec.Aliases).
var rawString = Codec[string]{
	Encode: func(dst []byte, v string) []byte {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		return append(dst, v...)
	},
	Decode: func(src []byte) (string, int, error) {
		l, n := binary.Uvarint(src)
		if n <= 0 || uint64(len(src)-n) < l {
			return "", 0, ErrShortBuffer
		}
		if l == 0 {
			return "", n, nil
		}
		return unsafe.String(&src[n], int(l)), n + int(l), nil
	},
	Aliases: true,
}

var rawBytes = Codec[[]byte]{
	Encode: func(dst []byte, v []byte) []byte {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		return append(dst, v...)
	},
	Decode: func(src []byte) ([]byte, int, error) {
		l, n := binary.Uvarint(src)
		if n <= 0 || uint64(len(src)-n) < l {
			return nil, 0, ErrShortBuffer
		}
		out := make([]byte, l)
		copy(out, src[n:n+int(l)])
		return out, n + int(l), nil
	},
}

var rawInt64 = Codec[int64]{
	Encode: func(dst []byte, v int64) []byte {
		return binary.AppendVarint(dst, v)
	},
	Decode: func(src []byte) (int64, int, error) {
		v, n := binary.Varint(src)
		if n <= 0 {
			return 0, 0, ErrShortBuffer
		}
		return v, n, nil
	},
}

var rawFloat64 = Codec[float64]{
	Encode: func(dst []byte, v float64) []byte {
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	},
	Decode: func(src []byte) (float64, int, error) {
		if len(src) < 8 {
			return 0, 0, ErrShortBuffer
		}
		return math.Float64frombits(binary.BigEndian.Uint64(src)), 8, nil
	},
}

var rawBool = Codec[bool]{
	Encode: func(dst []byte, v bool) []byte {
		if v {
			return append(dst, 1)
		}
		return append(dst, 0)
	},
	Decode: func(src []byte) (bool, int, error) {
		if len(src) < 1 {
			return false, 0, ErrShortBuffer
		}
		return src[0] != 0, 1, nil
	},
}

// StringCodec returns the string codec for a style.
func StringCodec(s Style) Codec[string] { return wrap(s, "java.lang.String", tagString, rawString) }

// BytesCodec returns the []byte codec for a style.
func BytesCodec(s Style) Codec[[]byte] { return wrap(s, "[B", tagBytes, rawBytes) }

// Int64Codec returns the int64 codec for a style.
func Int64Codec(s Style) Codec[int64] { return wrap(s, "java.lang.Long", tagInt64, rawInt64) }

// IntCodec returns an int codec for a style (encoded as int64).
func IntCodec(s Style) Codec[int] {
	c := Int64Codec(s)
	return Codec[int]{
		Encode: func(dst []byte, v int) []byte { return c.Encode(dst, int64(v)) },
		Decode: func(src []byte) (int, int, error) {
			v, n, err := c.Decode(src)
			return int(v), n, err
		},
	}
}

// Float64Codec returns the float64 codec for a style.
func Float64Codec(s Style) Codec[float64] {
	return wrap(s, "java.lang.Double", tagFloat64, rawFloat64)
}

// BoolCodec returns the bool codec for a style.
func BoolCodec(s Style) Codec[bool] { return wrap(s, "java.lang.Boolean", tagBool, rawBool) }
