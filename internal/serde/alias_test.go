package serde

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
)

// A decoded string is a view, not a copy (Codec.Aliases): these tests hold
// DecodeAll's side of that bargain — values never alias the src they were
// decoded from — and pin which codecs take the block copy that makes it so.

// regName is a string-holding type with a registered codec, which copies.
type regName struct{ S string }

func init() {
	Register(func(s Style) Codec[regName] {
		return Codec[regName]{
			Encode: func(dst []byte, v regName) []byte { return StringCodec(s).Encode(dst, v.S) },
			Decode: func(src []byte) (regName, int, error) {
				v, n, err := StringCodec(s).Decode(src)
				return regName{S: string([]byte(v))}, n, err
			},
		}
	})
}

// survives encodes vs, decodes them with DecodeAllN, overwrites the source
// and checks the values did not move.
func survives[T any](t *testing.T, name string, c Codec[T], vs []T) {
	t.Helper()
	src := EncodeAll(c, nil, vs)
	got, err := DecodeAllN(c, src, len(vs))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := range src {
		src[i] = 0xA5
	}
	if !reflect.DeepEqual(got, vs) {
		t.Errorf("%s: after the source was overwritten the values read %v, want %v", name, got, vs)
	}
}

// TestDecodedValuesSurviveTheirSource: values from DecodeAllN do not alias
// src, in every style, for every shape a string reaches a value in.
func TestDecodedValuesSurviveTheirSource(t *testing.T) {
	for _, s := range allStyles {
		survives(t, s.String()+" string", Of[string](s), []string{"alpha", "", "a longer string value"})
		pairs := []core.Pair[string, string]{core.KV("key0000001", "payload one"), core.KV("", "x"), core.KV("k", "")}
		survives(t, s.String()+" Of Pair[string,string]", Of[core.Pair[string, string]](s), pairs)
		survives(t, s.String()+" OfPair[string,string]", OfPair[string, string](s), pairs)
		survives(t, s.String()+" derived struct", Of[inner](s), []inner{
			{Name: "first", Tags: []string{"t1", "t2"}}, {Name: "second", Tags: []string{"only"}},
		})
		survives(t, s.String()+" []string", Of[[]string](s), [][]string{{"a", "bc"}, {"def"}})
		survives(t, s.String()+" map[string]int64", Of[map[string]int64](s), []map[string]int64{
			{"one": 1, "two": 2}, {"three": 3},
		})
	}
}

// TestAliasesMarksStringParts: Codec.Aliases is true exactly when a string
// part is decoded by the string codec — through pairs, structs, slices,
// arrays and maps alike — and false for gob parts and registered codecs,
// which copy.
func TestAliasesMarksStringParts(t *testing.T) {
	type withPointer struct {
		Name *string
		N    int64
	}
	type holdsRegistered struct {
		R regName
		N int64
	}
	for _, s := range allStyles {
		cases := []struct {
			name    string
			aliases bool
			want    bool
		}{
			{"string", Of[string](s).Aliases, true},
			{"int64", Of[int64](s).Aliases, false},
			{"[]byte", Of[[]byte](s).Aliases, false},
			{"OfPair[string,int64]", OfPair[string, int64](s).Aliases, true},
			{"OfPair[int64,float64]", OfPair[int64, float64](s).Aliases, false},
			{"Of Pair[int64,string]", Of[core.Pair[int64, string]](s).Aliases, true},
			{"struct with string", Of[inner](s).Aliases, true},
			{"struct without string", Of[vertexState](s).Aliases, false},
			{"SliceCodec(string)", SliceCodec(s, StringCodec(s)).Aliases, true},
			{"[]string", Of[[]string](s).Aliases, true},
			{"[]int64", Of[[]int64](s).Aliases, false},
			{"[2]string", Of[[2]string](s).Aliases, true},
			{"[3]float64", Of[[3]float64](s).Aliases, false},
			{"map[string]int64", Of[map[string]int64](s).Aliases, true},
			{"map[int64]string", Of[map[int64]string](s).Aliases, true},
			{"map[int64]int64", Of[map[int64]int64](s).Aliases, false},
			{"gob part", Of[withPointer](s).Aliases, false},
			{"registered", Of[regName](s).Aliases, false},
			{"registered in a struct", Of[holdsRegistered](s).Aliases, false},
			{"registered fixed-width", Of[fixedVertex](s).Aliases, false},
		}
		for _, c := range cases {
			if c.aliases != c.want {
				t.Errorf("%s %s: Aliases = %v, want %v", s, c.name, c.aliases, c.want)
			}
		}
	}
}

// TestBlockDecodeAllocations: a block with strings costs one copy however
// many string fields it holds, and a codec without strings — pagerank's
// and k-means' shapes — gets no copy at all: nothing but the result slice.
// AppendDecode onto a slice with room allocates nothing, strings included:
// it copies no src, so its strings are views of src itself. The counts hold
// under the race detector too: both decode a derived codec's records in
// place through its pointer form, never through the pooled cell the
// detector drops now and then.
func TestBlockDecodeAllocations(t *testing.T) {
	const n = 256
	check := func(name string, decode func(), want float64) {
		t.Helper()
		if got := testing.AllocsPerRun(50, decode); got != want {
			t.Errorf("%s: %v allocations to decode %d records, want %v", name, got, n, want)
		}
	}
	for _, s := range allStyles {
		fixed := OfPair[int64, fixedVertex](s)
		fsrc := EncodeAll(fixed, nil, make([]core.Pair[int64, fixedVertex], n))
		check(s.String()+" Pair[int64,fixedVertex]", func() { _, _ = DecodeAllN(fixed, fsrc, n) }, 1)
		nums := Of[core.Pair[int64, float64]](s)
		nsrc := EncodeAll(nums, nil, make([]core.Pair[int64, float64], n))
		check(s.String()+" Pair[int64,float64]", func() { _, _ = DecodeAllN(nums, nsrc, n) }, 1)
		strs := Of[core.Pair[string, string]](s)
		recs := make([]core.Pair[string, string], n)
		for i := range recs {
			recs[i] = core.KV("key0000001", "a ninety byte payload")
		}
		ssrc := EncodeAll(strs, nil, recs)
		check(s.String()+" Pair[string,string]", func() { _, _ = DecodeAllN(strs, ssrc, n) }, 2)

		fdst := make([]core.Pair[int64, fixedVertex], 0, n)
		check(s.String()+" AppendDecode Pair[int64,fixedVertex]", func() { _, _ = AppendDecode(fixed, fdst, fsrc) }, 0)
		ndst := make([]core.Pair[int64, float64], 0, n)
		check(s.String()+" AppendDecode Pair[int64,float64]", func() { _, _ = AppendDecode(nums, ndst, nsrc) }, 0)
		sdst := make([]core.Pair[string, string], 0, n)
		check(s.String()+" AppendDecode Pair[string,string]", func() { _, _ = AppendDecode(strs, sdst, ssrc) }, 0)
		// shuffle.DecodeBlocks on bytes nothing writes again — a
		// decompressed frame, a kept block: one slice of the block's record
		// count and no copy, where DecodeAllN above clones the block too.
		check(s.String()+" AppendDecode Pair[string,string] of a decompressed block", func() {
			_, _ = AppendDecode(strs, make([]core.Pair[string, string], 0, n), ssrc)
		}, 1)

		// No copy of src: overwriting it shows through the decoded strings.
		src := bytes.Clone(ssrc)
		views, err := AppendDecode(strs, sdst, src)
		if err != nil || len(views) != n {
			t.Fatalf("%s: AppendDecode = %d values, %v; want %d", s, len(views), err, n)
		}
		clear(src)
		if views[0].Key == recs[0].Key {
			t.Errorf("%s: AppendDecode's strings survived their src being cleared; they are copies, not views", s)
		}
	}
}

// FuzzDecodeAll: arbitrary bytes into DecodeAllN for the shapes strings
// reach shuffled records in — TeraSort's Pair[string,string] and a derived
// struct with string and []string fields — in every style, with any count
// hint. It returns an error or values, never panics, and the values never
// alias the input. Wire forms are not canonical (a varint may be overlong, a
// bool any non-zero byte, a Java header is skipped unread), so the values
// must re-encode to bytes no longer than those consumed, which decode back
// to the same values and re-encode to themselves. The same bytes through
// AppendDecode onto a non-empty slice leave its prefix as it was and append
// the values DecodeAllN returns.
func FuzzDecodeAll(f *testing.F) {
	for _, s := range allStyles {
		f.Add(uint8(s), uint16(2), EncodeAll(Of[core.Pair[string, string]](s), nil,
			[]core.Pair[string, string]{core.KV("key", "value"), core.KV("", "")}))
		f.Add(uint8(s), uint16(0), EncodeAll(Of[inner](s), nil,
			[]inner{{Name: "n", Tags: []string{"a", ""}}, {}}))
	}
	f.Add(uint8(TypeInfo), uint16(1), []byte{0x80, 0x00, 0x00})
	f.Add(uint8(Kryo), uint16(3), []byte{})
	f.Fuzz(func(t *testing.T, style uint8, count uint16, data []byte) {
		s := Style(style % 3)
		reencodes(t, Of[core.Pair[string, string]](s), data, int(count))
		reencodes(t, Of[inner](s), data, int(count))
		appends(t, Of[core.Pair[string, string]](s), data, int(count), []core.Pair[string, string]{core.KV("kept", "prefix")})
		appends(t, Of[inner](s), data, int(count), []inner{{Name: "kept", Tags: []string{"prefix"}}})
	})
}

// appends is FuzzDecodeAll's property for AppendDecode: onto a copy of
// prefix with room to spare, it fails exactly when DecodeAllN does, never
// writes the prefix, and appends DecodeAllN's values.
func appends[T any](t *testing.T, c Codec[T], data []byte, count int, prefix []T) {
	t.Helper()
	want, wantErr := DecodeAllN(c, data, count)
	dst := append(make([]T, 0, len(prefix)+4), prefix...)
	got, err := AppendDecode(c, dst, bytes.Clone(data))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%T: AppendDecode says %v, DecodeAllN %v", prefix, err, wantErr)
	}
	if !reflect.DeepEqual(dst, prefix) || !reflect.DeepEqual(got[:len(prefix)], prefix) {
		t.Fatalf("%T: AppendDecode wrote the prefix: %v, then %v, want %v", prefix, dst, got[:len(prefix)], prefix)
	}
	if err != nil {
		if len(got) != len(prefix) {
			t.Fatalf("%T: a failed AppendDecode returned %d values, want the prefix's %d", prefix, len(got), len(prefix))
		}
		return
	}
	if added := got[len(prefix):]; len(added) != len(want) || (len(want) > 0 && !reflect.DeepEqual(added, want)) {
		t.Fatalf("%T: AppendDecode appended %v, DecodeAllN returns %v", prefix, added, want)
	}
}

// reencodes is FuzzDecodeAll's property for one codec.
func reencodes[T any](t *testing.T, c Codec[T], data []byte, count int) {
	t.Helper()
	src := bytes.Clone(data)
	vs, err := DecodeAllN(c, src, count)
	if err != nil {
		return
	}
	enc := EncodeAll(c, nil, vs)
	for i := range src {
		src[i] ^= 0xFF
	}
	if again := EncodeAll(c, nil, vs); !bytes.Equal(again, enc) {
		t.Fatalf("%T: the values changed when their source was overwritten", vs)
	}
	if len(enc) > len(data) {
		t.Fatalf("%T: %d bytes decode to values that re-encode to %d", vs, len(data), len(enc))
	}
	back, err := DecodeAllN(c, enc, len(vs))
	same := len(back) == len(vs) && (len(vs) == 0 || reflect.DeepEqual(back, vs))
	if err != nil || !same || !bytes.Equal(EncodeAll(c, nil, back), enc) {
		t.Fatalf("%T: the values re-encode to %x, which decodes to %v (%v), want %v", vs, enc, back, err, vs)
	}
}
