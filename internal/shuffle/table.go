package shuffle

import (
	"hash/maphash"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"unsafe"

	"repro/internal/core"
)

// combineTable is the one pairwise keyed fold in the shuffle core, under all
// three engines: the writers' map-side combine and, behind Fold, the reduce
// side's — Spark's PartitionedAppendOnlyMap in miniature. A record folds into
// its key's entry the moment it arrives, so a writer holds (and counts against
// its thresholds and memory grants, partitions, sorts and spills) one record
// per distinct key instead of every arrival. Entries are dense and stay in
// first-seen order; an index over the Key finds them (see keyIndex). Its
// hash is process-seeded, but it only finds entries: it never routes or
// orders one, so every output is the same whatever the seed.
//
// With merge nil, add and addAll append and no index is built: entries is
// then a plain arrival buffer, for the no-combine path (TeraSort) and the
// run-level CombineRun path, which folds whole runs at cut time. Writers read
// entries; only this file writes it.
type combineTable[R any] struct {
	key   Key[R]
	merge func(a, b R) R

	entries []R      // one record per distinct key, first-seen order
	idx     index[R] // built by the first lookup
}

// tableMinSlots is the index size a table starts from; it doubles whenever
// the entries would fill more than half of it.
const tableMinSlots = 64

func newCombineTable[R any](spec *Spec[R]) combineTable[R] {
	return combineTable[R]{key: spec.Key, merge: spec.Merge}
}

// lookup returns the entry position of rec's key. An unseen key appends rec
// as its entry and reports seen == false.
func (t *combineTable[R]) lookup(rec R) (e int, seen bool) {
	if t.idx == nil {
		t.idx = t.key.index()
	}
	if e, seen = t.idx.lookup(rec); !seen {
		t.entries = append(t.entries, rec)
	}
	return e, seen
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

// reset empties the table, keeping its storage for the next run.
func (t *combineTable[R]) reset() {
	t.entries = t.entries[:0]
	if t.idx != nil {
		t.idx.reset()
	}
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
	idx := spec.Key.index()
	group := make([]int, len(run))
	groups := 0
	for i, rec := range run {
		g, seen := idx.lookup(rec)
		if !seen {
			groups++
		}
		group[i] = g
	}
	// Counting sort by group: next[g] is where group g's next record lands.
	next := make([]int, groups+1)
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

// Key is an edge's record key as the combine table indexes it: KeyBy builds
// one from a key accessor. (Spec.Hash and Spec.Same are its closure form.)
type Key[R any] interface {
	// same reports whether a and b have equal keys.
	same(a, b R) bool
	// index returns an empty index over the key, under a fresh seed.
	index() index[R]
}

// index finds a record's entry: entry e is the e-th distinct key lookup
// has seen since the last reset.
type index[R any] interface {
	// lookup returns the entry of rec's key; an unseen key becomes the
	// next entry and reports seen == false.
	lookup(rec R) (e int, seen bool)
	reset()
}

// KeyBy is the Key of records whose key is key(r). The index hashes the
// key itself, once per record, with a hash chosen once per key type:
// maphash for string kinds, an inline 64-bit mixer for integer kinds and
// core.HashKey for any other; it compares keys with ==. The hash is
// process-seeded and private to one index. Only core.HashKey routes or
// orders records, because that must be deterministic.
func KeyBy[R any, K comparable](key func(R) K) Key[R] { return keyFunc[R, K](key) }

// PairKey is the Key of pairs: their Key field.
func PairKey[K comparable, V any]() Key[core.Pair[K, V]] {
	return KeyBy(func(p core.Pair[K, V]) K { return p.Key })
}

// keyFunc is KeyBy's Key. A func value fits an interface word, so a Key
// costs no allocation.
type keyFunc[R any, K comparable] func(R) K

func (k keyFunc[R, K]) same(a, b R) bool { return k(a) == k(b) }

func (k keyFunc[R, K]) index() index[R] { return newKeyIndex(k) }

// Hash kinds: how keyIndex hashes a key, chosen once per key type.
const (
	hashOther  = iota // core.HashKey, or a test's hook (keyIndex.other)
	hashString        // maphash over the bytes
	hashInt8          // integer kinds by width, through mix
	hashInt16
	hashInt32
	hashInt64
)

// hashKind is the hash kind of K, read from its reflect kind.
func hashKind[K comparable]() uint8 {
	t := reflect.TypeOf((*K)(nil)).Elem()
	switch t.Kind() {
	case reflect.String:
		return hashString
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		switch t.Size() {
		case 1:
			return hashInt8
		case 2:
			return hashInt16
		case 4:
			return hashInt32
		case 8:
			return hashInt64
		}
	}
	return hashOther
}

// keyIndex is the combine table's index over a typed key: an open-addressed
// table of entry positions, probed linearly from the Fibonacci home of the
// key's hash, whose entries keep each key and its hash (growth never
// rehashes). A probe compares hashes, then keys with ==, so colliding
// distinct keys never merge. String keys are interned into the index's own
// arena, so the keys a probe compares sit together in first-seen order
// instead of wherever each record's bytes happen to live; the records the
// table hands out keep their own key strings. Nothing outside the index ever
// sees its hash, so the seed changes neither the entries nor their order.
type keyIndex[R any, K comparable] struct {
	key     func(R) K
	kind    uint8
	interns bool           // K is a string kind
	other   func(K) uint64 // a test's hash hook, for the hashOther kind
	seed    maphash.Seed   // string kinds
	iseed   uint64         // integer kinds

	ents  []indexEntry[K]
	arena []byte // string kinds: the bytes of the keys in ents
	slots
	first [tableMinSlots]uint32 // the first slots: building the index allocates nothing else
}

// indexEntry is one entry's key and hash.
type indexEntry[K any] struct {
	h uint64
	k K
}

// arenaMin is the first arena chunk a string index allocates.
const arenaMin = 4 << 10

func newKeyIndex[R any, K comparable](key func(R) K) *keyIndex[R, K] {
	kind := hashKind[K]()
	return &keyIndex[R, K]{key: key, kind: kind, interns: kind == hashString, seed: maphash.MakeSeed(), iseed: rand.Uint64()}
}

func (ix *keyIndex[R, K]) lookup(rec R) (int, bool) {
	if 2*len(ix.ents) >= len(ix.s) {
		if ix.s == nil {
			ix.s, ix.shift = ix.first[:], uint(64-bits.TrailingZeros(tableMinSlots))
		} else {
			growSlots(&ix.slots, ix.ents)
		}
	}
	k := ix.key(rec)
	var h uint64
	if ix.kind == hashString {
		h = maphash.String(ix.seed, *(*string)(unsafe.Pointer(&k)))
	} else {
		h = ix.hash(&k)
	}
	mask := uint64(len(ix.s) - 1)
	for i := (h * fibonacci) >> ix.shift; ; i = (i + 1) & mask {
		s := ix.s[i]
		if s == 0 {
			if ix.interns {
				ix.intern(&k)
			}
			ix.ents = append(ix.ents, indexEntry[K]{h, k})
			ix.s[i] = uint32(len(ix.ents))
			return len(ix.ents) - 1, false
		}
		if en := &ix.ents[s-1]; en.h == h && en.k == k {
			return int(s - 1), true
		}
	}
}

// hash is the index's hash of *k for every kind but hashString, which
// lookup hashes itself.
func (ix *keyIndex[R, K]) hash(k *K) uint64 {
	p := unsafe.Pointer(k)
	switch ix.kind {
	case hashInt64:
		return mix(*(*uint64)(p) ^ ix.iseed)
	case hashInt32:
		return mix(uint64(*(*uint32)(p)) ^ ix.iseed)
	case hashInt16:
		return mix(uint64(*(*uint16)(p)) ^ ix.iseed)
	case hashInt8:
		return mix(uint64(*(*uint8)(p)) ^ ix.iseed)
	}
	if ix.other != nil {
		return ix.other(*k)
	}
	return core.HashKey(*k)
}

// mix spreads an integer key over 64 bits: the two halves of its 128-bit
// product with an odd constant, folded (wyhash's mum).
func mix(x uint64) uint64 {
	hi, lo := bits.Mul64(x, 0xa0761d6478bd642f)
	return hi ^ lo
}

// intern moves the string key *k into the arena. A full chunk is left to
// the keys already in it and a chunk twice its size takes over, so interned
// keys never move.
func (ix *keyIndex[R, K]) intern(k *K) {
	s := (*string)(unsafe.Pointer(k))
	n := len(*s)
	if n == 0 {
		return
	}
	if len(ix.arena)+n > cap(ix.arena) {
		ix.arena = make([]byte, 0, max(2*cap(ix.arena), n, arenaMin))
	}
	at := len(ix.arena)
	ix.arena = append(ix.arena, *s...)
	*s = unsafe.String(&ix.arena[at], n)
}

// reset forgets every entry, keeping the slots and the current arena chunk:
// no key outside the index points into the arena.
func (ix *keyIndex[R, K]) reset() {
	ix.ents = ix.ents[:0]
	ix.arena = ix.arena[:0]
	clear(ix.s)
}

// slots is an index's open-addressed table: entry position + 1 per slot, 0
// for an empty one.
type slots struct {
	s     []uint32
	shift uint // 64 - log2(len(s))
}

// home is a hash's first probe slot. The Fibonacci multiply spreads whatever
// bits the hash varies in over the index, so a weak hash costs probes, never
// correctness.
func (s *slots) home(h uint64) uint64 {
	return (h * fibonacci) >> s.shift
}

// fibonacci is 2^64 divided by the golden ratio, rounded to odd.
const fibonacci = 0x9e3779b97f4a7c15

// growSlots doubles the index and re-seats every entry from its stored hash.
func growSlots[K any](s *slots, ents []indexEntry[K]) {
	n := max(2*len(s.s), tableMinSlots)
	s.s = make([]uint32, n)
	s.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := uint64(n - 1)
	for e := range ents {
		i := s.home(ents[e].h)
		for s.s[i] != 0 {
			i = (i + 1) & mask
		}
		s.s[i] = uint32(e + 1)
	}
}

// funcKey is a Key given in closure form, by Spec.Hash and Spec.Same. Its
// index makes an indirect call per hash and per compare, and compares
// against a copy of each entry's first record.
type funcKey[R any] struct {
	hash func(R) uint64
	eq   func(a, b R) bool
}

func (k *funcKey[R]) same(a, b R) bool { return k.eq(a, b) }

func (k *funcKey[R]) index() index[R] { return &funcIndex[R]{funcKey: k} }

// funcIndex is funcKey's index.
type funcIndex[R any] struct {
	*funcKey[R]
	ents []indexEntry[R]
	slots
}

func (ix *funcIndex[R]) lookup(rec R) (int, bool) {
	if 2*len(ix.ents) >= len(ix.s) {
		growSlots(&ix.slots, ix.ents)
	}
	h := ix.hash(rec)
	mask := uint64(len(ix.s) - 1)
	for i := ix.home(h); ; i = (i + 1) & mask {
		s := ix.s[i]
		if s == 0 {
			ix.ents = append(ix.ents, indexEntry[R]{h, rec})
			ix.s[i] = uint32(len(ix.ents))
			return len(ix.ents) - 1, false
		}
		if en := &ix.ents[s-1]; en.h == h && ix.eq(en.k, rec) {
			return int(s - 1), true
		}
	}
}

func (ix *funcIndex[R]) reset() {
	ix.ents = ix.ents[:0]
	clear(ix.s)
}
