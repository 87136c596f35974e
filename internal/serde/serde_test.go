package serde

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

var allStyles = []Style{Java, Kryo, TypeInfo}

func TestParseStyle(t *testing.T) {
	if ParseStyle("kryo") != Kryo || ParseStyle("typeinfo") != TypeInfo || ParseStyle("java") != Java {
		t.Error("ParseStyle mapping wrong")
	}
	if ParseStyle("anything-else") != Java {
		t.Error("unknown style should default to java, like Spark")
	}
}

func TestStringRoundTripAllStyles(t *testing.T) {
	for _, s := range allStyles {
		c := StringCodec(s)
		f := func(v string) bool {
			buf := c.Encode(nil, v)
			got, n, err := c.Decode(buf)
			return err == nil && n == len(buf) && got == v
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("style %v: %v", s, err)
		}
	}
}

func TestInt64RoundTripAllStyles(t *testing.T) {
	for _, s := range allStyles {
		c := Int64Codec(s)
		f := func(v int64) bool {
			buf := c.Encode(nil, v)
			got, n, err := c.Decode(buf)
			return err == nil && n == len(buf) && got == v
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("style %v: %v", s, err)
		}
	}
}

func TestFloat64AndBoolRoundTrip(t *testing.T) {
	for _, s := range allStyles {
		fc := Float64Codec(s)
		for _, v := range []float64{0, 1.5, -2.25e10, 3.14159} {
			buf := fc.Encode(nil, v)
			got, _, err := fc.Decode(buf)
			if err != nil || got != v {
				t.Errorf("style %v float64 %v: got %v err %v", s, v, got, err)
			}
		}
		bc := BoolCodec(s)
		for _, v := range []bool{true, false} {
			buf := bc.Encode(nil, v)
			got, _, err := bc.Decode(buf)
			if err != nil || got != v {
				t.Errorf("style %v bool %v: got %v err %v", s, v, got, err)
			}
		}
	}
}

func TestPairRoundTrip(t *testing.T) {
	for _, s := range allStyles {
		c := PairCodec(s, StringCodec(s), Int64Codec(s))
		f := func(k string, v int64) bool {
			buf := c.Encode(nil, core.KV(k, v))
			got, n, err := c.Decode(buf)
			return err == nil && n == len(buf) && got.Key == k && got.Value == v
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("style %v: %v", s, err)
		}
	}
}

func TestSliceCodec(t *testing.T) {
	for _, s := range allStyles {
		c := SliceCodec(s, Float64Codec(s))
		in := []float64{1, 2, 3.5}
		buf := c.Encode(nil, in)
		got, n, err := c.Decode(buf)
		if err != nil || n != len(buf) || len(got) != 3 || got[2] != 3.5 {
			t.Errorf("style %v slice round trip failed: %v %v", s, got, err)
		}
	}
}

func TestEncodeAllDecodeAll(t *testing.T) {
	c := Int64Codec(TypeInfo)
	in := []int64{5, -3, 900000, 0}
	buf := EncodeAll(c, nil, in)
	out, err := DecodeAll(c, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d values, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("out[%d] = %d, want %d", i, out[i], in[i])
		}
	}
}

// TestStyleSizeOrdering verifies the architectural claim the paper makes:
// Java serialization is the most verbose, Kryo smaller, TypeInfo smallest.
func TestStyleSizeOrdering(t *testing.T) {
	words := []string{"the", "quick", "brown", "fox", "jumps"}
	size := func(s Style) int {
		c := PairCodec(s, StringCodec(s), Int64Codec(s))
		var buf []byte
		for i, w := range words {
			buf = c.Encode(buf, core.KV(w, int64(i)))
		}
		return len(buf)
	}
	java, kryo, ti := size(Java), size(Kryo), size(TypeInfo)
	if !(java > kryo && kryo > ti) {
		t.Errorf("size ordering violated: java=%d kryo=%d typeinfo=%d", java, kryo, ti)
	}
}

func TestGobFallbackRoundTrip(t *testing.T) {
	type odd struct {
		A string
		B *int
	}
	for _, s := range allStyles {
		c := Of[odd](s)
		if c.Fallbacks != 1 {
			t.Fatalf("style %v: Fallbacks = %d, want 1 (the pointer field)", s, c.Fallbacks)
		}
		seven := 7
		in := odd{A: "x", B: &seven}
		buf := c.Encode(nil, in)
		got, n, err := c.Decode(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("style %v gob: err=%v n=%d len=%d", s, err, n, len(buf))
		}
		if got.A != in.A || got.B == nil || *got.B != 7 {
			t.Errorf("style %v gob mismatch: %+v", s, got)
		}
	}
}

func TestShortBufferErrors(t *testing.T) {
	c := StringCodec(TypeInfo)
	buf := c.Encode(nil, "hello world")
	if _, _, err := c.Decode(buf[:3]); err == nil {
		t.Error("truncated buffer should error")
	}
	jc := StringCodec(Java)
	jbuf := jc.Encode(nil, "hello")
	if _, _, err := jc.Decode(jbuf[:2]); err == nil {
		t.Error("truncated java buffer should error")
	}
}

func TestKryoTagMismatch(t *testing.T) {
	sc := StringCodec(Kryo)
	ic := Int64Codec(Kryo)
	buf := sc.Encode(nil, "not an int")
	if _, _, err := ic.Decode(buf); err == nil {
		t.Error("kryo decode with wrong tag should error")
	}
}

func TestFixedCodec(t *testing.T) {
	type rec struct{ key [10]byte }
	for _, s := range allStyles {
		c := FixedCodec(s, "TeraRecord", 10,
			func(dst []byte, v rec) { copy(dst, v.key[:]) },
			func(src []byte) rec {
				var r rec
				copy(r.key[:], src)
				return r
			})
		in := rec{key: [10]byte{'A', 'B', 'C', 1, 2, 3, 4, 5, 6, 7}}
		buf := c.Encode(nil, in)
		got, n, err := c.Decode(buf)
		if err != nil || n != len(buf) || got != in {
			t.Errorf("style %v fixed codec failed: %+v err=%v", s, got, err)
		}
	}
}

func TestMeasureProfiles(t *testing.T) {
	sample := []string{"aa", "bb", "cc", "dd"}
	p := Measure(StringCodec(TypeInfo), sample, 10)
	if p.BytesPerRecord != 3 { // 1 varint + 2 bytes
		t.Errorf("BytesPerRecord = %v, want 3", p.BytesPerRecord)
	}
	if p.NsPerRecord <= 0 {
		t.Error("NsPerRecord should be positive")
	}
	if got := Measure(StringCodec(Java), nil, 10); got != (Profile{}) {
		t.Error("empty sample should yield zero profile")
	}
}

func TestDecodeAllNoProgressGuard(t *testing.T) {
	bad := Codec[int]{
		Encode: func(dst []byte, v int) []byte { return dst },
		Decode: func(src []byte) (int, int, error) { return 0, 0, nil },
	}
	if _, err := DecodeAll(bad, []byte{1, 2}); err == nil {
		t.Error("zero-progress decoder should be rejected")
	}
}

// TestNormalizedKeyAgreesWithDecodedOrder is the property at the heart of
// the binary sort path: bytes.Compare on the keys NormKeyerFor writes must
// order any two keys exactly as < does, for every key kind it encodes, and
// kinds with no order-faithful encoding get no keyer.
func TestNormalizedKeyAgreesWithDecodedOrder(t *testing.T) {
	checkNormKeyOrder(t, []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64})
	checkNormKeyOrder(t, []int{math.MinInt, -7, 0, 7, math.MaxInt})
	checkNormKeyOrder(t, []int32{math.MinInt32, -1, 0, 1, math.MaxInt32})
	checkNormKeyOrder(t, []uint64{0, 1, 1 << 63, math.MaxUint64})
	checkNormKeyOrder(t, []uint32{0, 1, 1 << 31, math.MaxUint32})
	checkNormKeyOrder(t, []string{"", "a", "a\x00", "ab", "b", "\xff"})
	if NormKeyerFor[float64]() != nil || NormKeyerFor[bool]() != nil {
		t.Error("float64 and bool keys got a normalized keyer; they have no order-faithful one")
	}
}

func checkNormKeyOrder[K int64 | int | int32 | uint64 | uint32 | string](t *testing.T, keys []K) {
	t.Helper()
	key := NormKeyerFor[K]()
	if key == nil {
		t.Fatalf("no normalized keyer for %T", keys[0])
	}
	for _, a := range keys {
		for _, b := range keys {
			want := 0
			if a < b {
				want = -1
			} else if a > b {
				want = 1
			}
			if got := bytes.Compare(key(nil, a), key(nil, b)); got != want {
				t.Errorf("%T: Compare(key(%v), key(%v)) = %d, want %d", a, a, b, got, want)
			}
		}
	}
}
