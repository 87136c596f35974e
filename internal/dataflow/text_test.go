package dataflow

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

type (
	plainName  string // a named string kind without methods: the fast path
	plainCount uint16
	loudName   string // a String method: fmt calls it, so fmt must write it
)

func (n loudName) String() string { return "<" + string(n) + ">" }

// checkText holds SaveAsText's encoder for T to fmt.Append on every value,
// and to the path it should take: pairText or fmt.
func checkText[T any](t *testing.T, fast bool, vals ...T) {
	t.Helper()
	if got := pairText[T]() != nil; got != fast {
		t.Errorf("%T: pairText resolved = %v, want %v", *new(T), got, fast)
	}
	enc := textEncoder[T]()
	for _, v := range vals {
		prefix := []byte("prev\n")
		got := enc(prefix[:len(prefix):len(prefix)], v)
		want := append(fmt.Append([]byte("prev\n"), v), '\n')
		if string(got) != string(want) {
			t.Errorf("%T %#v: encoded %q, fmt gives %q", v, v, got, want)
		}
	}
}

// TestSaveAsTextMatchesFmt: the pair encoder writes fmt.Append's bytes for
// negative, zero and extreme integers of every width and sign, and for
// empty strings and strings with spaces, braces, non-ASCII and invalid
// UTF-8; named kinds without methods take it too, and everything else —
// a key with a String method, a float, a struct, a non-pair — stays on fmt.
func TestSaveAsTextMatchesFmt(t *testing.T) {
	strs := []string{"", "word", "two words", "{braces}", "}{", "naïve ☃", "\xff\xfe", " ", "tab\there", "new\nline"}
	var words []core.Pair[string, int64]
	for i, s := range strs {
		words = append(words, core.KV(s, []int64{0, -1, 1, math.MinInt64, math.MaxInt64, 42, -42, 10, -10, 7}[i]))
	}
	checkText(t, true, words...)
	checkText(t, true, core.KV(math.MinInt, "x"), core.KV(math.MaxInt, ""), core.KV(0, "{ }"))
	checkText(t, true, core.KV(int8(math.MinInt8), int16(math.MaxInt16)), core.KV(int8(0), int16(math.MinInt16)))
	checkText(t, true, core.KV(int32(math.MinInt32), uint32(math.MaxUint32)), core.KV(int32(-1), uint32(0)))
	checkText(t, true, core.KV(uint64(math.MaxUint64), uint8(255)), core.KV(uint64(0), uint8(0)))
	checkText(t, true, core.KV(uint(math.MaxUint), uint16(math.MaxUint16)))
	checkText(t, true, core.KV("a b", "c d"), core.KV("", ""), core.KV("é", "}"))
	checkText(t, true, core.KV(plainName("named"), plainCount(65535)), core.KV(plainName(""), plainCount(0)))
	checkText(t, false, core.KV(loudName("k"), int64(1)))
	checkText(t, false, core.KV("k", loudName("v")))
	checkText(t, false, core.KV("pi", 3.25), core.KV("neg zero", math.Copysign(0, -1)))
	checkText(t, false, core.KV(true, 1))
	checkText(t, false, core.KV("nested", core.KV("a", 1)))
	checkText(t, false, "a line", "")
	checkText(t, false, int64(-5))
	checkText(t, false, struct{ Key, Value string }{"looks", "like a pair"})
}

// TestPairTextAllocatesNothing: the pair encoder writes into the caller's
// buffer without boxing the record.
func TestPairTextAllocatesNothing(t *testing.T) {
	enc := textEncoder[core.Pair[string, int64]]()
	buf := make([]byte, 0, 64)
	rec := core.KV("alloc", int64(-12345))
	if n := testing.AllocsPerRun(100, func() { buf = enc(buf[:0], rec) }); n != 0 {
		t.Errorf("%v allocations per encoded pair, want 0", n)
	}
}
