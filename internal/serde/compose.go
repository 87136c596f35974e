package serde

import (
	"encoding/binary"

	"repro/internal/core"
)

// PairCodec composes key and value codecs into a codec for core.Pair. The
// style contributes the per-record tuple overhead (Java writes a tuple
// descriptor, Kryo a tag, TypeInfo nothing — the schema is implied).
func PairCodec[K comparable, V any](s Style, kc Codec[K], vc Codec[V]) Codec[core.Pair[K, V]] {
	base := Codec[core.Pair[K, V]]{
		Encode: func(dst []byte, p core.Pair[K, V]) []byte {
			dst = kc.Encode(dst, p.Key)
			return vc.Encode(dst, p.Value)
		},
		Decode: func(src []byte) (core.Pair[K, V], int, error) {
			var zero core.Pair[K, V]
			k, n, err := kc.Decode(src)
			if err != nil {
				return zero, 0, err
			}
			v, m, err := vc.Decode(src[n:])
			if err != nil {
				return zero, 0, err
			}
			return core.Pair[K, V]{Key: k, Value: v}, n + m, nil
		},
		Fallbacks: kc.Fallbacks + vc.Fallbacks,
		Aliases:   kc.Aliases || vc.Aliases,
	}
	if kc.EncodePtr != nil || vc.EncodePtr != nil {
		// A derived part reached through the pair's own fields, not through
		// its pooled cell.
		base.EncodePtr = func(dst []byte, p *core.Pair[K, V]) []byte {
			return vc.EncodeAt(kc.EncodeAt(dst, &p.Key), &p.Value)
		}
		base.DecodePtr = func(src []byte, p *core.Pair[K, V]) (int, error) {
			n, err := kc.DecodeAt(src, &p.Key)
			if err != nil {
				return 0, err
			}
			m, err := vc.DecodeAt(src[n:], &p.Value)
			if err != nil {
				return 0, err
			}
			return n + m, nil
		}
	}
	return wrap(s, "scala.Tuple2", tagPair, base)
}

// SliceCodec composes an element codec into a codec for slices.
func SliceCodec[T any](s Style, ec Codec[T]) Codec[[]T] {
	base := Codec[[]T]{
		Encode: func(dst []byte, vs []T) []byte {
			dst = binary.AppendUvarint(dst, uint64(len(vs)))
			for _, v := range vs {
				dst = ec.Encode(dst, v)
			}
			return dst
		},
		Decode: func(src []byte) ([]T, int, error) {
			// Every element is at least one byte, so a length beyond the
			// bytes that remain is corrupt; checked before it sizes the
			// allocation.
			l, n := binary.Uvarint(src)
			if n <= 0 || l > uint64(len(src)-n) {
				return nil, 0, ErrShortBuffer
			}
			out := make([]T, 0, l)
			off := n
			for i := uint64(0); i < l; i++ {
				v, m, err := ec.Decode(src[off:])
				if err != nil {
					return nil, 0, err
				}
				out = append(out, v)
				off += m
			}
			return out, off, nil
		},
		Fallbacks: ec.Fallbacks,
		Aliases:   ec.Aliases,
	}
	return wrap(s, "java.util.ArrayList", tagSlice, base)
}

// FixedCodec builds a codec for fixed-width binary records given explicit
// field encoders; used for TeraSort's 100-byte records where the TypeInfo
// style stores the 10-byte key first so sorting can compare raw bytes
// (the paper's OptimizedText format).
func FixedCodec[T any](s Style, typeName string, width int,
	put func(dst []byte, v T), get func(src []byte) T) Codec[T] {
	base := Codec[T]{
		Encode: func(dst []byte, v T) []byte {
			off := len(dst)
			for i := 0; i < width; i++ {
				dst = append(dst, 0)
			}
			put(dst[off:off+width], v)
			return dst
		},
		Decode: func(src []byte) (T, int, error) {
			var zero T
			if len(src) < width {
				return zero, 0, ErrShortBuffer
			}
			return get(src[:width]), width, nil
		},
	}
	return wrap(s, typeName, tagBytes, base)
}

// NormKeyerFor returns an append-style normalized-key writer for K when a
// memcmp byte order matching Go's < on K exists: strings append raw (a
// standalone key is its own tail field), signed integers append in
// sign-flipped big-endian, unsigned ones in plain big-endian. This is
// Flink's normalized-key optimization that the paper credits for the
// efficient sort-based aggregation component — sorters compare the packed
// bytes with bytes.Compare and never call Less (see shuffle.SortByNormKey).
//
// Key types with no order-faithful encoding return nil and sorters fall
// back to comparison sorting. Floats are deliberately excluded: ±0 compare
// equal under < but encode differently, which would change the tie order a
// stable comparison sort guarantees.
func NormKeyerFor[K any]() func(dst []byte, k K) []byte {
	var zero K
	switch any(zero).(type) {
	case string:
		return any(func(dst []byte, k string) []byte {
			return append(dst, k...)
		}).(func(dst []byte, k K) []byte)
	case int64:
		return any(AppendKeyInt64).(func(dst []byte, k K) []byte)
	case int:
		return any(func(dst []byte, k int) []byte {
			return AppendKeyInt64(dst, int64(k))
		}).(func(dst []byte, k K) []byte)
	case int32:
		return any(func(dst []byte, k int32) []byte {
			return AppendKeyInt64(dst, int64(k))
		}).(func(dst []byte, k K) []byte)
	case uint64:
		return any(func(dst []byte, k uint64) []byte {
			return binary.BigEndian.AppendUint64(dst, k)
		}).(func(dst []byte, k K) []byte)
	case uint32:
		return any(func(dst []byte, k uint32) []byte {
			return binary.BigEndian.AppendUint64(dst, uint64(k))
		}).(func(dst []byte, k K) []byte)
	}
	return nil
}

// AppendKeyInt64 appends v's order-preserving binary form: big-endian with
// the sign bit flipped, so negative values sort below positive ones.
func AppendKeyInt64(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v)^(1<<63))
}

// PairNormKeyer lifts a key writer to pair records, the form shuffle.Spec
// wants: the normalized key of a pair is the normalized key of its Key.
func PairNormKeyer[K comparable, V any](nk func(dst []byte, k K) []byte) func(p core.Pair[K, V], dst []byte) []byte {
	if nk == nil {
		return nil
	}
	return func(p core.Pair[K, V], dst []byte) []byte { return nk(dst, p.Key) }
}
