package shuffle

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/serde"
)

// TestSortByNormKeyMatchesStableSort is SortByNormKey's contract as a
// property: for a total key writer the result is sort.SliceStable under the
// Less the writer agrees with — order and, among equal keys, arrival order
// (the values are arrival indices). The key families are the ones the
// prefix-first comparison could get wrong: keys that share their first eight
// bytes, keys shorter than the prefix, zero bytes inside and at the end of a
// key (where a padded prefix ties with a real one), a handful of keys repeated
// thousands of times, and int64 keys, negatives included, which are exactly
// eight bytes. The later families aim at the radix passes and the fix-up
// behind them: sizes on both sides of the cutoff, a segment every digit of
// which is skipped, keys that differ in one prefix byte only, and runs of equal
// prefixes that only the key bytes, or only the lengths, can order. A sorter
// without the fix-up, or with an unstable scatter, fails here.
func TestSortByNormKeyMatchesStableSort(t *testing.T) {
	pick := func(alphabet string, minLen, maxLen int) func(*rand.Rand) string {
		return func(rng *rand.Rand) string {
			k := make([]byte, minLen+rng.Intn(maxLen-minLen+1))
			for i := range k {
				k[i] = alphabet[rng.Intn(len(alphabet))]
			}
			return string(k)
		}
	}
	oneOf := func(keys ...string) func(*rand.Rand) string {
		return func(rng *rand.Rand) string { return keys[rng.Intn(len(keys))] }
	}
	straddle := []int{radixCutoff - 1, radixCutoff, radixCutoff + 1, 100_000}
	type family struct {
		name  string
		gen   func(*rand.Rand) string
		sizes []int // nil: twenty random sizes below 3000
	}
	stringKeys := []family{
		{"shared 8-byte prefix", func(rng *rand.Rand) string { return "prefix--" + pick("ab", 0, 4)(rng) }, nil},
		{"shorter than 8", pick("abc", 0, 7), nil},
		{"embedded zeros", pick("\x00a", 0, 11), nil},
		{"heavy duplicates", func(rng *rand.Rand) string { return fmt.Sprint("word", rng.Intn(7)) }, nil},
		{"mixed lengths", pick("ab\x00", 6, 10), nil},
		{"around the cutoff", pick("abc\x00", 0, 12), straddle},
		{"all keys equal", oneOf("same-key"), []int{radixCutoff, 5000}},
		{"all keys equal and long", oneOf("one-key-longer-than-the-prefix"), []int{radixCutoff, 5000}},
		{"fix-up by key bytes", func(rng *rand.Rand) string { return "12345678" + pick("xyz", 0, 3)(rng) }, []int{radixCutoff, 5000}},
		{"fix-up by length", oneOf("a", "a\x00", "a\x00\x00", "a\x00\x00\x00\x00\x00\x00\x00", "a\x00\x00\x00\x00\x00\x00\x00\x00"), []int{radixCutoff, 5000}},
		{"200k words", func(rng *rand.Rand) string { return fmt.Sprint("w", rng.Intn(300), "-international") }, []int{200_000}},
	}
	for d := 0; d < 8; d++ {
		// Two keys that differ in prefix byte d and nowhere else, either with
		// a tail the prefix does not see.
		a, b := []byte("mmmmmmmm"), []byte("mmmmmmmm")
		b[d] = 'n'
		stringKeys = append(stringKeys, family{fmt.Sprint("one digit differs: ", d),
			oneOf(string(a), string(b), string(a)+"tail", string(b)+"tail"), []int{radixCutoff, 2000}})
	}
	for _, c := range stringKeys {
		t.Run(c.name, func(t *testing.T) {
			checkNormSort(t, c.gen, func(a, b string) bool { return a < b }, c.sizes...)
		})
	}
	t.Run("int64 with negatives", func(t *testing.T) {
		checkNormSort(t, func(rng *rand.Rand) int64 {
			if rng.Intn(4) == 0 {
				return int64(rng.Intn(5)) - 2 // duplicates around zero
			}
			return rng.Int63() - rng.Int63()
		}, func(a, b int64) bool { return a < b })
	})
	t.Run("int64 extremes", func(t *testing.T) {
		extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
		checkNormSort(t, func(rng *rand.Rand) int64 { return extremes[rng.Intn(len(extremes))] },
			func(a, b int64) bool { return a < b }, straddle...)
	})
	t.Run("int64 small range", func(t *testing.T) { // six of eight digits skipped
		checkNormSort(t, func(rng *rand.Rand) int64 { return int64(rng.Intn(5000)) },
			func(a, b int64) bool { return a < b }, straddle...)
	})
}

// TestSortByNormKeySizesItsKeysOnce sorts 100 000 records by TeraSort's
// 10-byte keys, as flink's SortPartitionNormalized does with every partition.
// The keys longer than the prefix go into one buffer sized once, from the
// first key's length, beside the sorter's other scratch: 8 allocations a
// sort (9 under the race detector). Grown by Go's append from nothing,
// ≈ 1.25× a step, the key buffer alone took 30 more.
func TestSortByNormKeySizesItsKeysOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	orig := make([]core.Pair[string, int], 100_000)
	for i := range orig {
		orig[i] = core.KV(fmt.Sprintf("%010d", rng.Int63n(1e10)), i)
	}
	key := serde.PairNormKeyer[string, int](serde.NormKeyerFor[string]())
	recs := make([]core.Pair[string, int], len(orig))
	allocs := testing.AllocsPerRun(3, func() {
		copy(recs, orig)
		SortByNormKey(recs, key)
	})
	t.Logf("%d records: %.0f allocations a sort", len(recs), allocs)
	if allocs > 12 {
		t.Errorf("sorting %d records allocates %.0f times, want at most 12", len(recs), allocs)
	}
}

// checkNormSort holds SortByNormKey to a stable sort under less, at the given
// sizes or, without any, at twenty random ones below 3000.
func checkNormSort[K comparable](t *testing.T, gen func(*rand.Rand) K, less func(a, b K) bool, sizes ...int) {
	t.Helper()
	key := serde.PairNormKeyer[K, int](serde.NormKeyerFor[K]())
	random := len(sizes) == 0
	if random {
		sizes = make([]int, 20)
	}
	for i, size := range sizes {
		seed := int64(i + 1)
		rng := rand.New(rand.NewSource(seed))
		if random {
			size = rng.Intn(3000)
		}
		recs := make([]core.Pair[K, int], size)
		for i := range recs {
			recs[i] = core.KV(gen(rng), i)
		}
		want := slices.Clone(recs)
		sort.SliceStable(want, func(i, j int) bool { return less(want[i].Key, want[j].Key) })
		SortByNormKey(recs, key)
		if !slices.Equal(recs, want) {
			for i := range recs {
				if recs[i] != want[i] {
					t.Fatalf("seed %d, %d records: position %d holds %v, a stable sort puts %v there",
						seed, len(recs), i, recs[i], want[i])
				}
			}
		}
	}
}

// FuzzSortByNormKey cuts arbitrary bytes into keys of arbitrary lengths (a
// length byte, 0–15, then that many key bytes) and holds SortByNormKey to
// sort.SliceStable under bytes.Compare, ties in arrival order. An input whose
// first byte is odd has its keys repeated until they fill a segment past the
// radix cutoff, so short inputs reach the radix passes and the fix-up too.
func FuzzSortByNormKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x01a\x02a\x00\x03a\x00\x00\x01a"))
	f.Add([]byte("\x01\x0912345678x\x0912345678y\x0812345678\x0a12345678xy\x0912345678x"))
	f.Add([]byte("\x01\x00\x00\x01\x00\x02\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("\x00\x04word\x04word\x05words\x03wor\x04word\x0dinternational\x0einternationals\x0dinternational"))
	long := []byte{1}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		k := make([]byte, rng.Intn(12))
		rng.Read(k)
		long = append(append(long, byte(len(k))), k...)
	}
	f.Add(long)
	key := func(p core.Pair[string, int], dst []byte) []byte { return append(dst, p.Key...) }
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []core.Pair[string, int]
		tile := len(data) > 0 && data[0]&1 == 1
		for rest := data[min(1, len(data)):]; len(rest) > 0; {
			n := min(int(rest[0]&15), len(rest)-1)
			recs = append(recs, core.KV(string(rest[1:1+n]), len(recs)))
			rest = rest[1+n:]
		}
		for distinct := len(recs); tile && distinct > 0 && len(recs) < 2*radixCutoff; {
			for _, r := range recs[:distinct] {
				recs = append(recs, core.KV(r.Key, len(recs)))
			}
		}
		want := slices.Clone(recs)
		sort.SliceStable(want, func(i, j int) bool {
			return bytes.Compare([]byte(want[i].Key), []byte(want[j].Key)) < 0
		})
		SortByNormKey(recs, key)
		for i := range recs {
			if recs[i] != want[i] {
				t.Fatalf("%d records: position %d holds %q/%d, a stable sort puts %q/%d there",
					len(recs), i, recs[i].Key, recs[i].Value, want[i].Key, want[i].Value)
			}
		}
	})
}
