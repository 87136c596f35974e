package serde

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/core"
)

// Derived codecs: Flink's TypeInformation extraction. The first Of[T] for a
// type walks it once with reflect and compiles a tree of closures over
// untyped memory — field offsets for structs, element strides for slices
// and arrays — whose leaves are the registered and built-in codecs, so a
// derived encoding is the existing wire forms laid end to end. After that
// the per-record path is closure calls on pointers: no reflect.Value, no
// type lookups. Two things Go can only do through reflect stay there and
// are the only per-record reflection: giving a decoded slice's backing
// array its element type, and reading or building a map.
//
// Besides the string codec's view (base.go), this file is the package's
// only use of unsafe.

// ptrCodec is a codec over untyped memory: enc encodes the value at p, dec
// decodes into the zeroed value at p and reports the bytes consumed.
// Neither retains p.
type ptrCodec struct {
	enc       func(dst []byte, p unsafe.Pointer) []byte
	dec       func(src []byte, p unsafe.Pointer) (int, error)
	fallbacks int  // gob leaves underneath, see Codec.Fallbacks
	aliases   bool // a string leaf underneath, see Codec.Aliases
}

// erase lifts a typed codec to untyped memory; T may be any type with the
// memory layout of the value at p (a named string reads as string).
func erase[T any](c Codec[T]) ptrCodec {
	return ptrCodec{
		enc: func(dst []byte, p unsafe.Pointer) []byte { return c.Encode(dst, *(*T)(p)) },
		dec: func(src []byte, p unsafe.Pointer) (int, error) {
			v, n, err := c.Decode(src)
			if err != nil {
				return 0, err
			}
			*(*T)(p) = v
			return n, nil
		},
		fallbacks: c.Fallbacks,
		aliases:   c.Aliases,
	}
}

// typed is the inverse of erase at the root of a derived codec. The value
// passes through a pooled heap cell rather than the caller's stack: the
// leaves are reached through function values, so a stack address would be
// forced to escape and cost one allocation per record.
func typed[T any](pc ptrCodec) Codec[T] {
	cells := &sync.Pool{New: func() any { return new(T) }}
	var zero T
	return Codec[T]{
		Encode: func(dst []byte, v T) []byte {
			cell := cells.Get().(*T)
			*cell = v
			dst = pc.enc(dst, unsafe.Pointer(cell))
			*cell = zero
			cells.Put(cell)
			return dst
		},
		Decode: func(src []byte) (T, int, error) {
			cell := cells.Get().(*T)
			n, err := pc.dec(src, unsafe.Pointer(cell))
			v := *cell
			*cell = zero
			cells.Put(cell)
			if err != nil {
				return zero, 0, err
			}
			return v, n, nil
		},
		Fallbacks: pc.fallbacks,
		Aliases:   pc.aliases,
	}
}

// wrapPtr is wrap over untyped memory: the same per-record header bytes
// and the same checks.
func wrapPtr(style Style, typeName string, tag byte, base ptrCodec) ptrCodec {
	var hdr []byte
	switch style {
	case Java:
		hdr = javaHeaderFor(typeName)
	case Kryo:
		hdr = []byte{tag}
	default:
		return base
	}
	return ptrCodec{
		enc: func(dst []byte, p unsafe.Pointer) []byte {
			return base.enc(append(dst, hdr...), p)
		},
		dec: func(src []byte, p unsafe.Pointer) (int, error) {
			if len(src) < len(hdr) {
				return 0, ErrShortBuffer
			}
			if style == Kryo && src[0] != tag {
				return 0, fmt.Errorf("serde: kryo tag mismatch: got %#x want %#x", src[0], tag)
			}
			n, err := base.dec(src[len(hdr):], p)
			if err != nil {
				return 0, err
			}
			return n + len(hdr), nil
		},
		fallbacks: base.fallbacks,
		aliases:   base.aliases,
	}
}

// pairPkg is the package whose Pair[...] instantiations are tuples.
var pairPkg = reflect.TypeFor[core.Pair[int, int]]().PkgPath()

type derivedKey struct {
	t     reflect.Type
	style Style
}

// derivedCodecs caches the typed root codec per (type, style). Register
// empties it: a cached parent may have derived a type that is registered
// now.
var (
	derivedMu     sync.RWMutex
	derivedCodecs = map[derivedKey]any{}
)

func resetDerived() {
	derivedMu.Lock()
	clear(derivedCodecs)
	derivedMu.Unlock()
}

// derived returns T's cached derived codec, compiling it on first use.
func derived[T any](style Style) Codec[T] {
	key := derivedKey{reflect.TypeFor[T](), style}
	derivedMu.RLock()
	c, ok := derivedCodecs[key]
	derivedMu.RUnlock()
	if ok {
		return c.(Codec[T])
	}
	d := deriver{style: style, busy: map[reflect.Type]bool{}}
	codec := typed[T](d.codec(key.t))
	derivedMu.Lock()
	if c, ok := derivedCodecs[key]; ok {
		codec = c.(Codec[T])
	} else {
		derivedCodecs[key] = codec
	}
	derivedMu.Unlock()
	return codec
}

// deriver compiles one root type. busy holds the types on the current
// path; an entry turns true when the walk meets that type again below
// itself.
type deriver struct {
	style Style
	busy  map[reflect.Type]bool
}

// codec resolves t the way Of does — registered, scalar, derived — and
// lands on the gob leaf for what has no structural encoding: pointers,
// interfaces, funcs, channels, complex numbers, structs with unexported
// fields, and every type that contains itself (gob already handles those,
// and one rule for the whole type keeps its bytes independent of where the
// walk entered the cycle).
func (d *deriver) codec(t reflect.Type) ptrCodec {
	if e, ok := registry.Load(t); ok {
		return e.(registration).erased(d.style)
	}
	if _, onPath := d.busy[t]; onPath {
		d.busy[t] = true
		return d.gob(t)
	}
	s := d.style
	switch t.Kind() {
	case reflect.String:
		return erase(StringCodec(s))
	case reflect.Bool:
		return erase(BoolCodec(s))
	case reflect.Int:
		return integer[int](Int64Codec(s))
	case reflect.Int8:
		return integer[int8](Int64Codec(s))
	case reflect.Int16:
		return integer[int16](Int64Codec(s))
	case reflect.Int32:
		return integer[int32](Int64Codec(s))
	case reflect.Int64:
		return erase(Int64Codec(s))
	case reflect.Uint:
		return integer[uint](uint64Codec(s))
	case reflect.Uint8:
		return integer[uint8](uint64Codec(s))
	case reflect.Uint16:
		return integer[uint16](uint64Codec(s))
	case reflect.Uint32:
		return integer[uint32](uint64Codec(s))
	case reflect.Uint64:
		return erase(uint64Codec(s))
	case reflect.Uintptr:
		return integer[uintptr](uint64Codec(s))
	case reflect.Float32:
		return erase(float32Codec(s))
	case reflect.Float64:
		return erase(Float64Codec(s))
	}

	d.busy[t] = false
	var pc ptrCodec
	ok := true
	switch t.Kind() {
	case reflect.Struct:
		pc, ok = d.structCodec(t)
	case reflect.Slice:
		pc = d.sliceCodec(t)
	case reflect.Array:
		pc, ok = d.arrayCodec(t)
	case reflect.Map:
		pc = d.mapCodec(t)
	default:
		ok = false
	}
	containsItself := d.busy[t]
	delete(d.busy, t)
	if !ok || containsItself {
		return d.gob(t)
	}
	return pc
}

func (d *deriver) gob(t reflect.Type) ptrCodec {
	return wrapPtr(d.style, t.String(), tagGob, ptrCodec{
		enc: func(dst []byte, p unsafe.Pointer) []byte {
			return gobEncode(dst, reflect.NewAt(t, p))
		},
		dec: func(src []byte, p unsafe.Pointer) (int, error) {
			return gobDecode(src, reflect.NewAt(t, p))
		},
		fallbacks: 1,
	})
}

// integer encodes an integer kind narrower than (or named differently
// from) its wire carrier W; decode rejects values the kind cannot hold.
func integer[T, W interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}](c Codec[W]) ptrCodec {
	return ptrCodec{
		enc: func(dst []byte, p unsafe.Pointer) []byte { return c.Encode(dst, W(*(*T)(p))) },
		dec: func(src []byte, p unsafe.Pointer) (int, error) {
			w, n, err := c.Decode(src)
			if err != nil {
				return 0, err
			}
			v := T(w)
			if W(v) != w {
				return 0, fmt.Errorf("serde: %d overflows %T", w, v)
			}
			*(*T)(p) = v
			return n, nil
		},
	}
}

func uint64Codec(s Style) Codec[uint64] {
	return wrap(s, "java.lang.Long", tagUint64, Codec[uint64]{
		Encode: binary.AppendUvarint,
		Decode: func(src []byte) (uint64, int, error) {
			v, n := binary.Uvarint(src)
			if n <= 0 {
				return 0, 0, ErrShortBuffer
			}
			return v, n, nil
		},
	})
}

func float32Codec(s Style) Codec[float32] {
	return wrap(s, "java.lang.Float", tagFloat32, Codec[float32]{
		Encode: func(dst []byte, v float32) []byte {
			return binary.BigEndian.AppendUint32(dst, math.Float32bits(v))
		},
		Decode: func(src []byte) (float32, int, error) {
			if len(src) < 4 {
				return 0, 0, ErrShortBuffer
			}
			return math.Float32frombits(binary.BigEndian.Uint32(src)), 4, nil
		},
	})
}

// structCodec lays the fields' encodings end to end in declaration order.
// core.Pair keeps PairCodec's tuple header so Of[Pair[K,V]] and OfPair[K,V]
// write the same bytes. A struct without fields writes one zero byte: every
// encoding in this package is at least one byte long, which is what lets a
// decoder bound a wire length by the bytes that remain.
func (d *deriver) structCodec(t reflect.Type) (ptrCodec, bool) {
	parts := make([]part, t.NumField())
	for i := range parts {
		f := t.Field(i)
		if !f.IsExported() {
			return ptrCodec{}, false
		}
		parts[i] = part{f.Offset, d.codec(f.Type)}
	}
	base := sequence(parts)
	if len(parts) == 0 {
		base.enc = func(dst []byte, _ unsafe.Pointer) []byte { return append(dst, 0) }
		base.dec = func(src []byte, _ unsafe.Pointer) (int, error) {
			if len(src) < 1 {
				return 0, ErrShortBuffer
			}
			return 1, nil
		}
	}
	if t.PkgPath() == pairPkg && strings.HasPrefix(t.Name(), "Pair[") {
		return wrapPtr(d.style, "scala.Tuple2", tagPair, base), true
	}
	return wrapPtr(d.style, t.String(), tagStruct, base), true
}

// part is one field of a struct or element of an array: where it sits in
// the parent and how it is encoded.
type part struct {
	off uintptr
	c   ptrCodec
}

// sequence lays the parts' encodings end to end.
func sequence(parts []part) ptrCodec {
	fallbacks, aliases := 0, false
	for _, p := range parts {
		fallbacks += p.c.fallbacks
		aliases = aliases || p.c.aliases
	}
	return ptrCodec{
		enc: func(dst []byte, p unsafe.Pointer) []byte {
			for i := range parts {
				dst = parts[i].c.enc(dst, unsafe.Add(p, parts[i].off))
			}
			return dst
		},
		dec: func(src []byte, p unsafe.Pointer) (int, error) {
			off := 0
			for i := range parts {
				n, err := parts[i].c.dec(src[off:], unsafe.Add(p, parts[i].off))
				if err != nil {
					return 0, err
				}
				off += n
			}
			return off, nil
		},
		fallbacks: fallbacks,
		aliases:   aliases,
	}
}

// sliceHeader is the runtime layout of a slice value.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// sliceCodec writes SliceCodec's form: a uvarint length, then the elements;
// a slice of any byte kind writes BytesCodec's. A decoded empty slice is
// nil.
func (d *deriver) sliceCodec(t reflect.Type) ptrCodec {
	if t.Elem().Kind() == reflect.Uint8 {
		return erase(BytesCodec(d.style))
	}
	ec := d.codec(t.Elem())
	size := t.Elem().Size()
	pointerFree := !hasPointers(t.Elem())
	return wrapPtr(d.style, "java.util.ArrayList", tagSlice, ptrCodec{
		enc: func(dst []byte, p unsafe.Pointer) []byte {
			h := (*sliceHeader)(p)
			dst = binary.AppendUvarint(dst, uint64(h.len))
			for i := 0; i < h.len; i++ {
				dst = ec.enc(dst, unsafe.Add(h.data, uintptr(i)*size))
			}
			return dst
		},
		dec: func(src []byte, p unsafe.Pointer) (int, error) {
			l, off := binary.Uvarint(src)
			if off <= 0 || l > uint64(len(src)-off) {
				return 0, ErrShortBuffer
			}
			if l == 0 {
				return off, nil
			}
			if pointerFree {
				// Nothing in the array for the collector to find, so any
				// 8-aligned memory of the right size serves.
				words := make([]uint64, (uintptr(l)*size+7)/8)
				*(*sliceHeader)(p) = sliceHeader{unsafe.Pointer(unsafe.SliceData(words)), int(l), int(l)}
			} else {
				// Only reflect can allocate an array whose element type
				// the collector knows; Grow does it in place, allocating
				// nothing besides the array.
				v := reflect.NewAt(t, p).Elem()
				v.Grow(int(l))
				v.SetLen(int(l))
			}
			data := (*sliceHeader)(p).data
			for i := 0; i < int(l); i++ {
				n, err := ec.dec(src[off:], unsafe.Add(data, uintptr(i)*size))
				if err != nil {
					return 0, err
				}
				off += n
			}
			return off, nil
		},
		fallbacks: ec.fallbacks,
		aliases:   ec.aliases,
	})
}

// hasPointers reports whether a value of type t holds anything the garbage
// collector must trace.
func hasPointers(t reflect.Type) bool {
	switch k := t.Kind(); {
	case k >= reflect.Bool && k <= reflect.Complex128:
		return false
	case k == reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case k == reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// arrayCodec writes the elements with no length; a byte array is copied
// whole. A zero-length array would encode to nothing and is not derived.
func (d *deriver) arrayCodec(t reflect.Type) (ptrCodec, bool) {
	n := t.Len()
	if n == 0 {
		return ptrCodec{}, false
	}
	if t.Elem().Kind() == reflect.Uint8 {
		return wrapPtr(d.style, t.String(), tagBytes, ptrCodec{
			enc: func(dst []byte, p unsafe.Pointer) []byte {
				return append(dst, unsafe.Slice((*byte)(p), n)...)
			},
			dec: func(src []byte, p unsafe.Pointer) (int, error) {
				if len(src) < n {
					return 0, ErrShortBuffer
				}
				copy(unsafe.Slice((*byte)(p), n), src)
				return n, nil
			},
		}), true
	}
	ec := d.codec(t.Elem())
	parts := make([]part, n)
	for i := range parts {
		parts[i] = part{uintptr(i) * t.Elem().Size(), ec}
	}
	elems := sequence(parts)
	elems.fallbacks = ec.fallbacks // one element type, as for a slice
	return wrapPtr(d.style, t.String(), tagStruct, elems), true
}

// mapCodec writes a uvarint entry count, then the entries ordered by their
// encoded keys, so equal maps encode to equal bytes whatever order Go
// iterates them in. Maps have no layout to address by offset: both
// directions go through reflect and allocate per entry. A decoded empty
// map is nil.
func (d *deriver) mapCodec(t reflect.Type) ptrCodec {
	kc, vc := d.codec(t.Key()), d.codec(t.Elem())
	return wrapPtr(d.style, "java.util.HashMap", tagMap, ptrCodec{
		enc: func(dst []byte, p unsafe.Pointer) []byte {
			m := reflect.NewAt(t, p).Elem()
			dst = binary.AppendUvarint(dst, uint64(m.Len()))
			if m.Len() == 0 {
				return dst
			}
			type span struct{ start, keyEnd, end int }
			entries := make([]span, 0, m.Len())
			var enc []byte
			k, v := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
			for it := m.MapRange(); it.Next(); {
				k.SetIterKey(it)
				v.SetIterValue(it)
				e := span{start: len(enc)}
				enc = kc.enc(enc, k.Addr().UnsafePointer())
				e.keyEnd = len(enc)
				enc = vc.enc(enc, v.Addr().UnsafePointer())
				e.end = len(enc)
				entries = append(entries, e)
			}
			sort.Slice(entries, func(i, j int) bool {
				a, b := entries[i], entries[j]
				return bytes.Compare(enc[a.start:a.keyEnd], enc[b.start:b.keyEnd]) < 0
			})
			for _, e := range entries {
				dst = append(dst, enc[e.start:e.end]...)
			}
			return dst
		},
		dec: func(src []byte, p unsafe.Pointer) (int, error) {
			l, off := binary.Uvarint(src)
			if off <= 0 || l > uint64(len(src)-off) {
				return 0, ErrShortBuffer
			}
			if l == 0 {
				return off, nil
			}
			m := reflect.MakeMapWithSize(t, int(l))
			k, v := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
			for i := uint64(0); i < l; i++ {
				n, err := kc.dec(src[off:], k.Addr().UnsafePointer())
				if err != nil {
					return 0, err
				}
				off += n
				if n, err = vc.dec(src[off:], v.Addr().UnsafePointer()); err != nil {
					return 0, err
				}
				off += n
				m.SetMapIndex(k, v)
				k.SetZero()
				v.SetZero()
			}
			reflect.NewAt(t, p).Elem().Set(m)
			return off, nil
		},
		fallbacks: kc.fallbacks + vc.fallbacks,
		aliases:   kc.aliases || vc.aliases,
	})
}
