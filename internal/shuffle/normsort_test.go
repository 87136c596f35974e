package shuffle

import (
	"fmt"
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
// eight bytes.
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
	stringKeys := map[string]func(*rand.Rand) string{
		"shared 8-byte prefix": func(rng *rand.Rand) string { return "prefix--" + pick("ab", 0, 4)(rng) },
		"shorter than 8":       pick("abc", 0, 7),
		"embedded zeros":       pick("\x00a", 0, 11),
		"heavy duplicates":     func(rng *rand.Rand) string { return fmt.Sprint("word", rng.Intn(7)) },
		"mixed lengths":        pick("ab\x00", 6, 10),
	}
	for name, gen := range stringKeys {
		t.Run(name, func(t *testing.T) {
			checkNormSort(t, gen, func(a, b string) bool { return a < b })
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
}

func checkNormSort[K comparable](t *testing.T, gen func(*rand.Rand) K, less func(a, b K) bool) {
	t.Helper()
	key := serde.PairNormKeyer[K, int](serde.NormKeyerFor[K]())
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]core.Pair[K, int], rng.Intn(3000))
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
