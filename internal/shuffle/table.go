package shuffle

import "math/bits"

// combineTable is the one pairwise keyed fold in the shuffle core, under all
// three engines: the writers' map-side combine and, behind Fold, the reduce
// side's — Spark's PartitionedAppendOnlyMap in miniature. A record folds into
// its key's entry the moment it arrives, so a writer holds (and counts against
// its thresholds and memory grants, partitions, sorts and spills) one record
// per distinct key instead of every arrival. Entries are dense and stay in
// first-seen order; an open-addressed index over Spec.Hash finds them, and
// only entries whose full hash matches are compared with Spec.Same, so
// colliding distinct keys never merge.
//
// With merge nil, add and addAll append and the index stays empty: entries
// is then a plain arrival buffer, for the no-combine path (TeraSort) and the
// run-level CombineRun path, which folds whole runs at cut time. Writers read
// entries; only this file writes it.
type combineTable[R any] struct {
	hash  func(R) uint64
	same  func(a, b R) bool
	merge func(a, b R) R

	entries []R      // one record per distinct key, first-seen order
	hashes  []uint64 // hashes[i] is hash(entries[i]): growth never rehashes
	slots   []uint32 // entry position + 1; 0 marks an empty slot
	shift   uint     // 64 - log2(len(slots))
}

// tableMinSlots is the index size a table starts from; it doubles whenever
// the entries would fill more than half of it.
const tableMinSlots = 64

func newCombineTable[R any](spec *Spec[R]) combineTable[R] {
	return combineTable[R]{hash: spec.Hash, same: spec.Same, merge: spec.Merge}
}

// lookup returns the entry position of rec's key. An unseen key appends rec
// as its entry and reports seen == false.
func (t *combineTable[R]) lookup(rec R) (e int, seen bool) {
	if 2*len(t.entries) >= len(t.slots) {
		t.grow()
	}
	h := t.hash(rec)
	mask := uint64(len(t.slots) - 1)
	for i := t.home(h); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			t.entries = append(t.entries, rec)
			t.hashes = append(t.hashes, h)
			t.slots[i] = uint32(len(t.entries))
			return len(t.entries) - 1, false
		}
		if e := int(s - 1); t.hashes[e] == h && t.same(t.entries[e], rec) {
			return e, true
		}
	}
}

// add holds one more record: folded into its key's entry, or appended when
// the table does not combine pairwise.
func (t *combineTable[R]) add(rec R) {
	if t.merge == nil {
		t.entries = append(t.entries, rec)
	} else if e, seen := t.lookup(rec); seen {
		t.entries[e] = t.merge(t.entries[e], rec)
	}
}

// addAll holds a batch of records: one copy when the table does not combine
// pairwise.
func (t *combineTable[R]) addAll(recs []R) {
	if t.merge == nil {
		t.entries = append(t.entries, recs...)
		return
	}
	for _, rec := range recs {
		if e, seen := t.lookup(rec); seen {
			t.entries[e] = t.merge(t.entries[e], rec)
		}
	}
}

// home is a hash's first probe slot. The Fibonacci multiply spreads whatever
// bits the key hash varies in over the index, so a weak Spec.Hash costs
// probes, never correctness.
func (t *combineTable[R]) home(h uint64) uint64 {
	return (h * 0x9e3779b97f4a7c15) >> t.shift
}

// grow doubles the index and re-seats every entry from its stored hash.
func (t *combineTable[R]) grow() {
	n := 2 * len(t.slots)
	if n < tableMinSlots {
		n = tableMinSlots
	}
	t.slots = make([]uint32, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := uint64(n - 1)
	for e, h := range t.hashes {
		i := t.home(h)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = uint32(e + 1)
	}
}

// reset empties the table, keeping its storage for the next run.
func (t *combineTable[R]) reset() {
	t.entries = t.entries[:0]
	t.hashes = t.hashes[:0]
	clear(t.slots)
}

// take hands the entries over to the caller and leaves the table empty.
func (t *combineTable[R]) take() []R {
	out := t.entries
	t.entries = nil
	t.reset()
	return out
}

// groupByKey reorders a run so records of equal keys are adjacent — keys in
// first-seen order, a key's records in arrival order — the adjacency
// CombineRun needs when the edge has no record order to sort by.
func groupByKey[R any](run []R, spec *Spec[R]) []R {
	if len(run) < 2 {
		return run
	}
	t := newCombineTable(spec)
	group := make([]int, len(run))
	for i, rec := range run {
		group[i], _ = t.lookup(rec)
	}
	// Counting sort by group: next[g] is where group g's next record lands.
	next := make([]int, len(t.entries)+1)
	for _, g := range group {
		next[g+1]++
	}
	for g := 1; g < len(next); g++ {
		next[g] += next[g-1]
	}
	out := make([]R, len(run))
	for i, rec := range run {
		out[next[group[i]]] = rec
		next[group[i]]++
	}
	return out
}
