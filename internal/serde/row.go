package serde

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/memory"
)

// This file is the tungsten-style row format: one contiguous byte span per
// record, laid out so the engine can work on serialized data directly —
// field access is pointer arithmetic, sort comparison is bytes.Compare on a
// normalized key, and the only per-record "object" is a slice header.
//
// Row layout (all integers little-endian):
//
//	[uint32 bodyLen][slot 0]...[slot n-1][var-width tail]
//
// Every field owns one 8-byte slot. Fixed-width kinds (int64, float64,
// bool) store the value inline; var-width kinds (bytes, string) store
// uint32 offset | uint32 length packed into the slot, the offset relative
// to the body start, pointing into the tail region after the slots. The
// uint32 body-length prefix makes rows positionally decodable (O(1) skip)
// when packed back to back in a shuffle block or spill run.

// Kind identifies a row field's type.
type Kind uint8

// Row field kinds. Int64, Float64 and Bool are fixed-width (stored inline
// in the slot); Bytes and String are var-width (slot holds offset+length
// into the tail).
const (
	KindInt64 Kind = iota
	KindFloat64
	KindBool
	KindBytes
	KindString
)

// Fixed reports whether the kind stores its value inline in the slot.
func (k Kind) Fixed() bool { return k <= KindBool }

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "int64"
	case KindFloat64:
		return "float64"
	case KindBool:
		return "bool"
	case KindBytes:
		return "bytes"
	case KindString:
		return "string"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

const rowSlotSize = 8

// Schema is the field layout of a row type — the TypeInfo the engine peeks
// at up front so records need no per-record type tags at all.
type Schema struct {
	kinds []Kind
}

// NewSchema builds a schema from field kinds, in field order.
func NewSchema(kinds ...Kind) *Schema {
	return &Schema{kinds: append([]Kind(nil), kinds...)}
}

// NumFields returns the field count.
func (s *Schema) NumFields() int { return len(s.kinds) }

// Kind returns field i's kind.
func (s *Schema) Kind(i int) Kind { return s.kinds[i] }

// RowBuilder assembles one row at a time into a pooled buffer. A builder is
// reused across records (Reset between rows); the only steady-state
// allocations are buffer growth, which the pool amortizes away.
type RowBuilder struct {
	s   *Schema
	buf []byte // row body: slots then tail
}

// NewBuilder returns a builder over a pooled buffer, ready for the first
// row. Release returns the buffer to the pool when the builder is done.
func (s *Schema) NewBuilder() *RowBuilder {
	b := &RowBuilder{s: s, buf: memory.DefaultPool.Get(rowSlotSize * (len(s.kinds) + 4))}
	b.Reset()
	return b
}

// Reset clears the builder for the next row, keeping the buffer.
func (b *RowBuilder) Reset() {
	b.buf = b.buf[:rowSlotSize*len(b.s.kinds)]
	for i := range b.buf {
		b.buf[i] = 0
	}
}

// Release returns the builder's buffer to the pool. The builder must not
// be used afterwards.
func (b *RowBuilder) Release() {
	memory.DefaultPool.Put(b.buf)
	b.buf = nil
}

func (b *RowBuilder) slot(i int) []byte {
	return b.buf[i*rowSlotSize : (i+1)*rowSlotSize]
}

func (b *RowBuilder) checkKind(i int, k Kind) {
	if got := b.s.kinds[i]; got != k {
		panic(fmt.Sprintf("serde: Set%s on field %d of kind %s", k, i, got))
	}
}

// SetInt64 stores v inline in field i's slot.
func (b *RowBuilder) SetInt64(i int, v int64) {
	b.checkKind(i, KindInt64)
	binary.LittleEndian.PutUint64(b.slot(i), uint64(v))
}

// SetFloat64 stores v inline in field i's slot.
func (b *RowBuilder) SetFloat64(i int, v float64) {
	b.checkKind(i, KindFloat64)
	binary.LittleEndian.PutUint64(b.slot(i), math.Float64bits(v))
}

// SetBool stores v inline in field i's slot.
func (b *RowBuilder) SetBool(i int, v bool) {
	b.checkKind(i, KindBool)
	if v {
		b.slot(i)[0] = 1
	} else {
		b.slot(i)[0] = 0
	}
}

// SetBytes appends v to the tail and stores (offset, length) in field i's
// slot. Setting the same var-width field twice leaks the first value into
// the tail until the next Reset (like tungsten's UnsafeRowWriter).
func (b *RowBuilder) SetBytes(i int, v []byte) {
	b.checkKind(i, KindBytes)
	b.putVar(i, v)
}

// SetString appends v to the tail and stores (offset, length) in field i's
// slot, without copying through a []byte conversion allocation.
func (b *RowBuilder) SetString(i int, v string) {
	b.checkKind(i, KindString)
	off := len(b.buf)
	b.buf = append(b.buf, v...)
	binary.LittleEndian.PutUint32(b.slot(i)[:4], uint32(off))
	binary.LittleEndian.PutUint32(b.slot(i)[4:], uint32(len(v)))
}

func (b *RowBuilder) putVar(i int, v []byte) {
	off := len(b.buf)
	b.buf = append(b.buf, v...)
	binary.LittleEndian.PutUint32(b.slot(i)[:4], uint32(off))
	binary.LittleEndian.PutUint32(b.slot(i)[4:], uint32(len(v)))
}

// AppendRow appends the finished row (length prefix + body) to dst and
// returns the extended slice — the Codec.Encode shape.
func (b *RowBuilder) AppendRow(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.buf)))
	return append(dst, b.buf...)
}

// Row is a read-only view over one row's body. The view BORROWS the
// underlying buffer (no copy on decode); copy out any field the caller
// keeps past the buffer's lifetime.
type Row struct {
	s    *Schema
	body []byte
}

// ReadRow decodes one row from the front of src, borrowing src's storage,
// and reports the bytes consumed — the Codec.Decode shape.
func (s *Schema) ReadRow(src []byte) (Row, int, error) {
	if len(src) < 4 {
		return Row{}, 0, ErrShortBuffer
	}
	n := int(binary.LittleEndian.Uint32(src))
	if n < rowSlotSize*len(s.kinds) || len(src) < 4+n {
		return Row{}, 0, ErrShortBuffer
	}
	return Row{s: s, body: src[4 : 4+n]}, 4 + n, nil
}

// Schema returns the row's schema.
func (r Row) Schema() *Schema { return r.s }

func (r Row) slot(i int) []byte {
	return r.body[i*rowSlotSize : (i+1)*rowSlotSize]
}

// Int64 reads field i.
func (r Row) Int64(i int) int64 {
	return int64(binary.LittleEndian.Uint64(r.slot(i)))
}

// Float64 reads field i.
func (r Row) Float64(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(r.slot(i)))
}

// Bool reads field i.
func (r Row) Bool(i int) bool { return r.slot(i)[0] != 0 }

// Bytes returns field i's var-width payload as a view into the row's
// buffer — zero-copy, valid only while the buffer is.
func (r Row) Bytes(i int) ([]byte, error) {
	off := int(binary.LittleEndian.Uint32(r.slot(i)[:4]))
	n := int(binary.LittleEndian.Uint32(r.slot(i)[4:]))
	if off < rowSlotSize*len(r.s.kinds) || off+n > len(r.body) {
		return nil, fmt.Errorf("serde: row field %d points outside the row body", i)
	}
	return r.body[off : off+n], nil
}

// String copies field i's payload out as a string.
func (r Row) String(i int) (string, error) {
	b, err := r.Bytes(i)
	return string(b), err
}

// Codec returns the zero-copy row codec: Encode appends a row's wire form,
// Decode returns a borrowing view. Rows round-trip identically under every
// Style — the layout IS the TypeInfo; the other styles gain nothing to tag.
func (s *Schema) Codec() Codec[Row] {
	return Codec[Row]{
		Encode: func(dst []byte, r Row) []byte {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.body)))
			return append(dst, r.body...)
		},
		Decode: func(src []byte) (Row, int, error) {
			return s.ReadRow(src)
		},
		Aliases: true, // a row borrows src
	}
}

// Normalized key encoding: per-kind transforms whose raw-byte order under
// bytes.Compare equals the decoded values' order — Flink's normalized-key
// sort and the paper's OptimizedText trick, generalized. Sorters compare
// these prefixes with memcmp and never deserialize (see shuffle's sort
// strategy and dataflow.SortByKey).

// AppendKeyInt64 appends v's order-preserving binary form: big-endian with
// the sign bit flipped, so negative values sort below positive ones.
func AppendKeyInt64(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v)^(1<<63))
}

// AppendKeyFloat64 appends v's order-preserving binary form (IEEE 754 bit
// tricks: flip all bits of negatives, flip the sign bit of positives).
// NaNs sort above +Inf, giving floats a total order.
func AppendKeyFloat64(dst []byte, v float64) []byte {
	bits := math.Float64bits(v)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return binary.BigEndian.AppendUint64(dst, bits)
}

// AppendKeyBool appends v as one byte (false < true).
func AppendKeyBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendKeyBytes appends a var-width field in order-preserving escaped
// form: 0x00 bytes become 0x00 0xFF and the field ends with 0x00 0x00, so
// concatenated multi-field keys stay memcmp-comparable ("a" sorts before
// "a\x00" sorts before "ab"). A key whose LAST field is var-width can use
// AppendKeyTailBytes instead and skip the escape entirely.
func AppendKeyBytes(dst []byte, v []byte) []byte {
	for _, c := range v {
		if c == 0 {
			dst = append(dst, 0, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0, 0)
}

// AppendKeyTailBytes appends a var-width field raw — valid only as the
// final field of a key, where memcmp on the raw bytes already matches
// lexicographic order (TeraSort's 10-byte keys take this path).
func AppendKeyTailBytes(dst []byte, v []byte) []byte {
	return append(dst, v...)
}

// AppendKeyString is AppendKeyBytes for strings, allocation-free.
func AppendKeyString(dst []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		if v[i] == 0 {
			dst = append(dst, 0, 0xFF)
		} else {
			dst = append(dst, v[i])
		}
	}
	return append(dst, 0, 0)
}

// AppendKey appends row r's normalized key over the given fields, in
// order. Var-width fields use the escaped form except in last position.
func (r Row) AppendKey(dst []byte, fields ...int) ([]byte, error) {
	for fi, i := range fields {
		switch r.s.kinds[i] {
		case KindInt64:
			dst = AppendKeyInt64(dst, r.Int64(i))
		case KindFloat64:
			dst = AppendKeyFloat64(dst, r.Float64(i))
		case KindBool:
			dst = AppendKeyBool(dst, r.Bool(i))
		case KindBytes, KindString:
			b, err := r.Bytes(i)
			if err != nil {
				return nil, err
			}
			if fi == len(fields)-1 {
				dst = AppendKeyTailBytes(dst, b)
			} else {
				dst = AppendKeyBytes(dst, b)
			}
		}
	}
	return dst, nil
}
