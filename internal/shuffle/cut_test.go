package shuffle

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/serde"
)

type kv = core.Pair[string, int64]

// cutRecords are n word pairs whose values are arrival indices, so a byte
// comparison of encoded output sees the order among equal keys. The
// vocabulary has words shorter than the sort prefix, words that share their
// first eight bytes and words that are prefixes of one another.
func cutRecords(n int) []kv {
	rng := rand.New(rand.NewSource(5))
	recs := make([]kv, n)
	for i := range recs {
		w := fmt.Sprint("w", rng.Intn(60))
		switch rng.Intn(3) {
		case 1:
			w = "shared--" + w
		case 2:
			w += "\x00"
		}
		recs[i] = core.KV(w, int64(i))
	}
	return recs
}

// referenceCut is the sort writer's contract written the slow way: records
// are held (folded by key in first-seen order under Merge) and cut into a run
// whenever spillRecs are held; a run is routed, each partition stably sorted
// under Less (or grouped by key, first seen first, when CombineRun has no
// order to lean on) and combined; a partition's runs merge stably and combine
// again, or concatenate when there is no order. It returns each partition's
// encoded block.
func referenceCut(spec Spec[kv], spillRecs int, recs []kv) [][]byte {
	var runs [][]kv
	var held []kv
	for _, rec := range recs {
		at := -1
		if spec.Merge != nil {
			at = slices.IndexFunc(held, func(h kv) bool { return spec.Same(h, rec) })
		}
		if at >= 0 {
			held[at] = spec.Merge(held[at], rec)
		} else {
			held = append(held, rec)
		}
		if spillRecs > 0 && len(held) >= spillRecs {
			runs = append(runs, held)
			held = nil
		}
	}
	runs = append(runs, held)
	stable := func(part []kv) {
		sort.SliceStable(part, func(i, j int) bool { return spec.Less(part[i], part[j]) })
	}
	out := make([][]byte, spec.NumParts)
	for p := range out {
		var segs [][]kv
		for _, run := range runs {
			var part []kv
			for _, rec := range run {
				if spec.Route(rec) == p {
					part = append(part, rec)
				}
			}
			if spec.Less != nil {
				stable(part)
			}
			if spec.Merge == nil && spec.CombineRun != nil && len(part) > 0 {
				if spec.Less == nil {
					var grouped []kv
					for i, rec := range part {
						if slices.IndexFunc(part[:i], func(h kv) bool { return spec.Same(h, rec) }) >= 0 {
							continue
						}
						for _, later := range part[i:] {
							if spec.Same(rec, later) {
								grouped = append(grouped, later)
							}
						}
					}
					part = grouped
				}
				part = spec.CombineRun(part)
			}
			if len(part) > 0 {
				segs = append(segs, part)
			}
		}
		final := slices.Concat(segs...)
		if len(segs) > 1 && spec.Less != nil {
			stable(final)
			final = combineAdjacent(final, spec)
		}
		out[p] = serde.EncodeAll(spec.Codec, nil, final)
	}
	return out
}

// TestCutMatchesReference holds the packed run sorter to the reference above,
// block for block and byte for byte, over the partition counts, ordering and
// combining modes and spill settings the engines use it with. At 3000 records
// the unspilled partitions are long enough for the radix passes; the spilled
// runs of 100 stay under the cutoff.
func TestCutMatchesReference(t *testing.T) {
	recs := cutRecords(3000)
	sum := func(a, b kv) kv { return core.KV(a.Key, a.Value+b.Value) }
	sumRun := func(run []kv) []kv {
		out := run[:0] // folds in place, as Spec.CombineRun allows
		for _, rec := range run {
			if n := len(out); n > 0 && out[n-1].Key == rec.Key {
				out[n-1].Value += rec.Value
			} else {
				out = append(out, rec)
			}
		}
		return out
	}
	normKey := serde.PairNormKeyer[string, int64](serde.NormKeyerFor[string]())
	modes := []struct {
		name string
		set  func(*Spec[kv])
	}{
		{"Less nil", func(s *Spec[kv]) { s.Less = nil }},
		{"Less+NormKey", func(s *Spec[kv]) { s.NormKey = normKey }},
		{"Less without NormKey", func(*Spec[kv]) {}},
		{"CombineRun sorted", func(s *Spec[kv]) { s.NormKey, s.CombineRun = normKey, sumRun }},
		{"CombineRun unordered", func(s *Spec[kv]) { s.Less, s.CombineRun = nil, sumRun }},
		{"Merge sorted", func(s *Spec[kv]) { s.NormKey, s.Merge = normKey, sum }},
		{"Merge unordered", func(s *Spec[kv]) { s.Less, s.Merge = nil, sum }},
	}
	for _, numParts := range []int{1, 2, 7} {
		for _, mode := range modes {
			for _, spillRecs := range []int{0, 100} {
				spec := pairSpec(numParts, false)
				mode.set(&spec)
				name := fmt.Sprintf("parts=%d/%s/SpillRecs=%d", numParts, mode.name, spillRecs)
				got := make([][]byte, numParts)
				w := NewWriter(spec, Env{Settings: Settings{Kind: Sort, SpillRecs: spillRecs},
					Emit: func(p int, b Block) error {
						got[p] = append(got[p], b.Bytes()...)
						return nil
					}})
				for _, rec := range recs {
					if err := w.Write(rec); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for p, want := range referenceCut(spec, spillRecs, recs) {
					if !bytes.Equal(got[p], want) {
						t.Errorf("%s: partition %d is not the reference's block (%d bytes against %d)",
							name, p, len(got[p]), len(want))
					}
				}

				// One key routed out of range, late in the input: the writer
				// errors — at the spill that reaches it, or at Close — and no
				// block, not even another partition's, gets out.
				bad := spec
				bad.Route = func(r kv) int {
					if r.Key == "routed nowhere" {
						return numParts
					}
					return spec.Route(r)
				}
				emitted := 0
				w = NewWriter(bad, Env{Settings: Settings{Kind: Sort, SpillRecs: spillRecs},
					Emit: func(int, Block) error { emitted++; return nil }})
				var err error
				for _, rec := range slices.Insert(slices.Clone(recs), 2500, core.KV("routed nowhere", int64(0))) {
					if err = w.Write(rec); err != nil {
						break
					}
				}
				if err == nil {
					err = w.Close()
				}
				if err == nil || emitted != 0 {
					t.Errorf("%s: bad route gave error %v and %d emitted blocks, want an error and none", name, err, emitted)
				}
				w.Abort()
			}
		}
	}
}

// TestSortWriterReusesScratchAcrossSpills pins who owns the run sorter's
// scratch: the writer, across spills. After the first cut has sized the
// partition ids, the entry array, the radix scratch, the key bytes and the
// gathered run, a further cut allocates one slice — the per-partition headers
// it returns — whatever the partition count and however many records it
// holds. (A spill also keeps each partition's encoded bytes; those are the
// run, not scratch, and are not counted here.)
func TestSortWriterReusesScratchAcrossSpills(t *testing.T) {
	recs := cutRecords(50_000)
	normKey := serde.PairNormKeyer[string, int64](serde.NormKeyerFor[string]())
	for _, numParts := range []int{1, 8, 64} {
		for _, perCut := range []int{1000, 10_000} {
			for _, sorted := range []bool{true, false} {
				spec := pairSpec(numParts, false)
				if sorted {
					spec.NormKey = normKey
				} else {
					spec.Less = nil
				}
				w := newSortWriter(spec, Env{Settings: Settings{Kind: Sort}})
				next := 0
				fill := func() {
					w.held.addAll(recs[next : next+perCut])
					next = (next + perCut) % len(recs)
				}
				// Every cut holds perCut records of the 50 k-record input,
				// so none after the first has anything to grow.
				fill()
				if _, err := w.cut(); err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				const cuts = 4
				for i := 0; i < cuts; i++ {
					fill()
					if _, err := w.cut(); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				if perCutAllocs := float64(after.Mallocs-before.Mallocs) / cuts; perCutAllocs > 2 {
					t.Errorf("parts=%d, %d records a cut, sorted=%v: %.1f allocations per cut after the first, want the partition headers only",
						numParts, perCut, sorted, perCutAllocs)
				}
			}
		}
	}
}
