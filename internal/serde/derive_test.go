package serde

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// Record shapes the engines shuffle: a fixed registered type nested in
// derived parents, structs in slices, maps, arrays, the narrow kinds.
type fixedVertex struct {
	Rank   float64
	Degree int64
}

type vertexState struct {
	VD     fixedVertex
	Active bool
}

type unioned struct {
	IsVertex bool
	State    vertexState
	Msg      float64
}

type inner struct {
	Name string
	Tags []string
}

type nested struct {
	ID     int32
	Score  float32
	Flags  uint8
	Wide   uint64
	Key    [4]byte
	Coords [3]float64
	In     inner
	Group  []inner
	Adj    []int64
	Attrs  map[string]int64
	Index  map[int16][]string
	Blob   []byte
}

type userID int64

type named struct {
	User userID
	Name core.Pair[string, userID]
}

func init() {
	Register(func(s Style) Codec[fixedVertex] {
		return FixedCodec(s, "fixedVertex", 16,
			func(dst []byte, v fixedVertex) {
				binary.BigEndian.PutUint64(dst, math.Float64bits(v.Rank))
				binary.BigEndian.PutUint64(dst[8:], uint64(v.Degree))
			},
			func(src []byte) fixedVertex {
				return fixedVertex{
					Rank:   math.Float64frombits(binary.BigEndian.Uint64(src)),
					Degree: int64(binary.BigEndian.Uint64(src[8:])),
				}
			})
	})
}

// normalize maps empty slices and maps to nil throughout v, the one
// difference a round trip is allowed to make (gob makes it too).
func normalize(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			normalize(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.SetZero()
			return
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			normalize(v.Index(i))
		}
	case reflect.Map:
		if v.Len() == 0 {
			v.SetZero()
			return
		}
		for it := v.MapRange(); it.Next(); {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(it.Value())
			normalize(e)
			v.SetMapIndex(it.Key(), e)
		}
	}
}

// checkAgainstGob is the round-trip property: for random values of T under
// every style, the derived codec consumes exactly what it wrote and decodes
// the value encoding/gob — the reference, and what Of used before —
// decodes, and encodes equal values to equal bytes.
func checkAgainstGob[T any](t *testing.T) {
	t.Helper()
	for _, s := range allStyles {
		c := Of[T](s)
		if c.Fallbacks != 0 {
			t.Fatalf("%T style %v: Fallbacks = %d, want a fully derived codec", *new(T), s, c.Fallbacks)
		}
		prop := func(in T) bool {
			buf := c.Encode([]byte("prefix"), in)
			got, n, err := c.Decode(buf[len("prefix"):])
			if err != nil || n != len(buf)-len("prefix") {
				t.Logf("decode: n=%d of %d, err=%v", n, len(buf)-len("prefix"), err)
				return false
			}
			var ref T
			var g bytes.Buffer
			if err := gob.NewEncoder(&g).Encode(&in); err != nil {
				t.Logf("gob encode: %v", err)
				return false
			}
			if err := gob.NewDecoder(&g).Decode(&ref); err != nil {
				t.Logf("gob decode: %v", err)
				return false
			}
			normalize(reflect.ValueOf(&got).Elem())
			normalize(reflect.ValueOf(&ref).Elem())
			if !reflect.DeepEqual(got, ref) {
				t.Logf("derived %+v\n    gob %+v", got, ref)
				return false
			}
			// Maps iterate in random order; the bytes may not.
			return bytes.Equal(c.Encode(nil, got), buf[len("prefix"):])
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(int64(s) + 1))}); err != nil {
			t.Errorf("%T style %v: %v", *new(T), s, err)
		}
	}
}

func TestDerivedRoundTripMatchesGob(t *testing.T) {
	checkAgainstGob[nested](t)
	checkAgainstGob[named](t)
	checkAgainstGob[unioned](t)
	checkAgainstGob[[]unioned](t)
	checkAgainstGob[[]int64](t)
	checkAgainstGob[[][]string](t)
	checkAgainstGob[map[string][]int64](t)
	checkAgainstGob[map[inner0]nested](t)
	checkAgainstGob[core.Pair[string, string]](t)
	checkAgainstGob[core.Pair[int64, []int64]](t)
	checkAgainstGob[core.Pair[int64, vertexState]](t)
	checkAgainstGob[core.Pair[userID, []core.Pair[string, unioned]]](t)
}

// inner0 is a comparable struct, usable as a map key.
type inner0 struct {
	A string
	B int8
}

// A registered type keeps its registered bytes inside a derived parent.
func TestDerivedKeepsRegisteredEncoding(t *testing.T) {
	for _, s := range allStyles {
		v := fixedVertex{Rank: 0.25, Degree: 9}
		want := Of[fixedVertex](s).Encode(nil, v)
		got := Of[vertexState](s).Encode(nil, vertexState{VD: v})
		if !bytes.Contains(got, want) {
			t.Errorf("style %v: vertexState bytes %x do not contain the registered fixedVertex bytes %x", s, got, want)
		}
	}
}

// pairBytesEqual is the contract that lets flink resolve Of[Pair[K,V]] and
// spark OfPair[K,V] and still shuffle the same bytes.
func pairBytesEqual[K comparable, V any](t *testing.T, recs ...core.Pair[K, V]) {
	t.Helper()
	for _, s := range allStyles {
		of, ofPair := Of[core.Pair[K, V]](s), OfPair[K, V](s)
		a, b := EncodeAll(of, nil, recs), EncodeAll(ofPair, nil, recs)
		if !bytes.Equal(a, b) {
			t.Errorf("%T style %v: Of wrote %x, OfPair wrote %x", recs[0], s, a, b)
			continue
		}
		if of.Fallbacks != ofPair.Fallbacks {
			t.Errorf("%T style %v: Fallbacks %d vs %d", recs[0], s, of.Fallbacks, ofPair.Fallbacks)
		}
		// Each decodes the other's bytes.
		x, err1 := DecodeAll(of, b)
		y, err2 := DecodeAll(ofPair, a)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(x, y) {
			t.Errorf("%T style %v: cross decode %v / %v: %+v vs %+v", recs[0], s, err1, err2, x, y)
		}
	}
}

// A derived slice is SliceCodec's bytes: derivation composes the existing
// wire forms, it does not invent new ones.
func TestDerivedSliceEqualsSliceCodec(t *testing.T) {
	in := []int64{1, -2, 300000}
	for _, s := range allStyles {
		got := Of[[]int64](s).Encode(nil, in)
		want := SliceCodec(s, Int64Codec(s)).Encode(nil, in)
		if !bytes.Equal(got, want) {
			t.Errorf("style %v: derived %x, SliceCodec %x", s, got, want)
		}
	}
}

func TestOfPairTypeEqualsOfPair(t *testing.T) {
	pairBytesEqual(t, core.KV("the", int64(3)), core.KV("", int64(-1)))
	pairBytesEqual(t, core.KV("key0000001", "payload"), core.KV("k", ""))
	pairBytesEqual(t, core.KV(int64(7), []int64{1, 2, 3}), core.KV(int64(8), []int64{9}))
	pairBytesEqual(t, core.KV(int64(1), vertexState{VD: fixedVertex{Rank: 1, Degree: 2}, Active: true}))
	pairBytesEqual(t, core.KV(int64(1), []unioned{{IsVertex: true}, {Msg: 0.5}}))
	pairBytesEqual(t, core.KV(userID(4), core.KV(3.5, true)))
	seven := 7
	pairBytesEqual(t, core.KV("gob value", &seven))
}

func TestDerivedEncodeDoesNotAllocate(t *testing.T) {
	buf := make([]byte, 0, 4096)
	check := func(name string, encode func()) {
		t.Helper()
		encode() // fill the cell pool
		if n := testing.AllocsPerRun(200, encode); n != 0 {
			t.Errorf("%s: %v allocs per encode, want 0", name, n)
		}
	}
	for _, s := range allStyles {
		ss := Of[core.Pair[string, string]](s)
		check("Pair[string,string]", func() { ss.Encode(buf, core.KV("key0000001", "a ninety byte payload")) })
		adj := Of[core.Pair[int64, []int64]](s)
		list := []int64{4, 8, 15, 16, 23, 42}
		check("Pair[int64,[]int64]", func() { adj.Encode(buf, core.KV(int64(1), list)) })
		un := Of[core.Pair[int64, []unioned]](s)
		group := []unioned{{IsVertex: true, State: vertexState{Active: true}}, {Msg: 0.15}}
		check("Pair[int64,[]unioned]", func() { un.Encode(buf, core.KV(int64(1), group)) })
		ns := Of[nested](s)
		v := nested{ID: 1, In: inner{Name: "n", Tags: []string{"a", "b"}}, Group: []inner{{Name: "g"}}, Adj: list}
		check("nested", func() { ns.Encode(buf, v) })
	}
}

// Decode allocates what the value holds and nothing else: nothing for a
// string pair, whose strings are views of src, one array for an adjacency
// list.
func TestDerivedDecodeAllocations(t *testing.T) {
	ss := Of[core.Pair[string, string]](TypeInfo)
	enc := ss.Encode(nil, core.KV("key0000001", "payload"))
	if n := testing.AllocsPerRun(200, func() { ss.Decode(enc) }); n > 0 {
		t.Errorf("Pair[string,string]: %v allocs per decode, want 0", n)
	}
	adj := Of[core.Pair[int64, []int64]](TypeInfo)
	enc = adj.Encode(nil, core.KV(int64(1), []int64{4, 8, 15, 16, 23, 42}))
	if n := testing.AllocsPerRun(200, func() { adj.Decode(enc) }); n > 1 {
		t.Errorf("Pair[int64,[]int64]: %v allocs per decode, want 1", n)
	}
}

type tree struct {
	V    int
	Kids []tree
}

type mutualA struct{ B []mutualB }
type mutualB struct{ A map[string]mutualA }

type hidden struct {
	Shown  string
	hidden int
}

// What cannot be derived resolves to gob, is counted, terminates, and still
// round-trips what gob round-trips.
func TestUnderivableTypesFallBack(t *testing.T) {
	for _, s := range allStyles {
		tc := Of[tree](s)
		if tc.Fallbacks != 1 {
			t.Errorf("style %v: tree Fallbacks = %d, want 1 (the whole type)", s, tc.Fallbacks)
		}
		in := tree{V: 1, Kids: []tree{{V: 2}, {V: 3, Kids: []tree{{V: 4}}}}}
		got, _, err := tc.Decode(tc.Encode(nil, in))
		if err != nil || !reflect.DeepEqual(got, in) {
			t.Errorf("style %v: tree round trip: %+v, %v", s, got, err)
		}
		// Inside a derived parent only the recursive part is gob.
		if c := Of[core.Pair[string, []tree]](s); c.Fallbacks != 1 {
			t.Errorf("style %v: Pair[string,[]tree] Fallbacks = %d, want 1", s, c.Fallbacks)
		}
		if c := Of[mutualA](s); c.Fallbacks != 1 {
			t.Errorf("style %v: mutualA Fallbacks = %d, want 1", s, c.Fallbacks)
		}

		hc := Of[hidden](s)
		if hc.Fallbacks != 1 {
			t.Errorf("style %v: hidden Fallbacks = %d, want 1", s, hc.Fallbacks)
		}
		h, _, err := hc.Decode(hc.Encode(nil, hidden{Shown: "x", hidden: 5}))
		if err != nil || h.Shown != "x" || h.hidden != 0 {
			t.Errorf("style %v: hidden round trip: %+v, %v (gob drops unexported fields)", s, h, err)
		}

		for name, n := range map[string]int{
			"*int":            Of[*int](s).Fallbacks,
			"any":             Of[any](s).Fallbacks,
			"complex128":      Of[complex128](s).Fallbacks,
			"[]*int":          Of[[]*int](s).Fallbacks,
			"map[string]*int": Of[map[string]*int](s).Fallbacks,
		} {
			if n != 1 {
				t.Errorf("style %v: %s Fallbacks = %d, want 1", s, name, n)
			}
		}
	}
}

func TestNarrowIntegerOverflowIsAnError(t *testing.T) {
	type small struct{ V int8 }
	enc := Of[struct{ V int64 }](TypeInfo).Encode(nil, struct{ V int64 }{300})
	if _, _, err := Of[small](TypeInfo).Decode(enc); err == nil {
		t.Error("300 decoded into an int8")
	}
}

// A wire length is bounded by the bytes that remain before it sizes an
// allocation: a truncated or oversized length is an error, not a panic.
func TestCorruptLengthIsAnError(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	sc := SliceCodec(TypeInfo, Int64Codec(TypeInfo))
	whole := sc.Encode(nil, []int64{1, 2, 3})
	decoders := map[string]func([]byte) error{
		"SliceCodec":      func(b []byte) error { _, _, err := sc.Decode(b); return err },
		"derived slice":   func(b []byte) error { _, _, err := Of[[]int32](TypeInfo).Decode(b); return err },
		"derived structs": func(b []byte) error { _, _, err := Of[[]inner](TypeInfo).Decode(b); return err },
		"derived map":     func(b []byte) error { _, _, err := Of[map[int64]int64](TypeInfo).Decode(b); return err },
	}
	for name, decode := range decoders {
		if err := decode(huge); err == nil {
			t.Errorf("%s: length 2^62 over no bytes decoded", name)
		}
		if err := decode(append(huge[:len(huge):len(huge)], 1, 2, 3)); err == nil {
			t.Errorf("%s: length 2^62 over three bytes decoded", name)
		}
		if err := decode(whole[:len(whole)-1]); err == nil {
			t.Errorf("%s: truncated body decoded", name)
		}
		if err := decode([]byte{0x80}); err == nil {
			t.Errorf("%s: truncated length decoded", name)
		}
	}
}

// withSlice is the struct-with-slice shape FuzzDerivedDecode feeds
// arbitrary bytes; a map type is the other.
type withSlice struct {
	Name  string
	Items []inner
	Adj   []int64
	Small int16
}

// FuzzDerivedDecode: arbitrary bytes into derived decoders give an error or
// a value that re-encodes, never a panic and never an allocation the input
// length does not bound.
func FuzzDerivedDecode(f *testing.F) {
	for _, s := range allStyles {
		f.Add(uint8(s), Of[withSlice](s).Encode(nil, withSlice{Name: "n", Items: []inner{{Name: "i", Tags: []string{"t"}}}, Adj: []int64{1, 2}}))
		f.Add(uint8(s), Of[map[string][]int64](s).Encode(nil, map[string][]int64{"a": {1}, "b": nil}))
	}
	f.Add(uint8(TypeInfo), binary.AppendUvarint(nil, 1<<62))
	f.Fuzz(func(t *testing.T, style uint8, data []byte) {
		s := Style(style % 3)
		sc := Of[withSlice](s)
		if v, n, err := sc.Decode(data); err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("withSlice consumed %d of %d bytes", n, len(data))
			}
			if again, _, err := sc.Decode(sc.Encode(nil, v)); err != nil || !reflect.DeepEqual(again, v) {
				t.Fatalf("withSlice re-encode: %+v vs %+v, %v", again, v, err)
			}
		}
		mc := Of[map[string][]int64](s)
		if v, n, err := mc.Decode(data); err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("map consumed %d of %d bytes", n, len(data))
			}
			if again, _, err := mc.Decode(mc.Encode(nil, v)); err != nil || !reflect.DeepEqual(again, v) {
				t.Fatalf("map re-encode: %+v vs %+v, %v", again, v, err)
			}
		}
	})
}

// TestBulkPathsUseThePointerForm: EncodeAll and DecodeAllN reach a derived
// codec through its pointer form — at the root (Of of a pair) and under
// PairCodec's value (OfPair over a derived struct) — and write and read the
// bytes the value form does, without a pooled cell, so not one allocation
// per record, race detector or not.
func TestBulkPathsUseThePointerForm(t *testing.T) {
	const n = 64
	for _, s := range allStyles {
		pairs := make([]core.Pair[string, string], n)
		states := make([]core.Pair[int64, vertexState], n)
		for i := range pairs {
			pairs[i] = core.KV("key"+string(rune('a'+i%26)), "value")
			states[i] = core.KV(int64(i), vertexState{VD: fixedVertex{Rank: float64(i) / 3, Degree: int64(i)}, Active: i%2 == 0})
		}
		checkBulk(t, s.String()+" Of[Pair[string,string]]", Of[core.Pair[string, string]](s), pairs)
		checkBulk(t, s.String()+" OfPair[int64,vertexState]", OfPair[int64, vertexState](s), states)
	}
}

func checkBulk[T any](t *testing.T, name string, c Codec[T], vs []T) {
	t.Helper()
	if c.EncodePtr == nil || c.DecodePtr == nil {
		t.Fatalf("%s: no pointer form", name)
	}
	var want []byte
	for _, v := range vs {
		want = c.Encode(want, v)
	}
	buf := make([]byte, 0, 2*len(want))
	if got := EncodeAll(c, buf, vs); !bytes.Equal(got, want) {
		t.Fatalf("%s: EncodeAll wrote %x, the value form %x", name, got, want)
	}
	if a := testing.AllocsPerRun(20, func() { EncodeAll(c, buf, vs) }); a != 0 {
		t.Errorf("%s: EncodeAll allocates %v times for %d records, want 0", name, a, len(vs))
	}
	got, err := DecodeAllN(c, want, len(vs))
	if err != nil || !reflect.DeepEqual(got, vs) {
		t.Fatalf("%s: DecodeAllN = %v, %v; want the encoded values", name, got, err)
	}
	if _, err := DecodeAllN(c, want[:len(want)-1], 0); err == nil {
		t.Errorf("%s: DecodeAllN accepted a truncated block", name)
	}
}
