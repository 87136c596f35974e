package shuffle

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/metrics"
)

// collidingKey is a typed key whose index hashes through h instead of the
// key type's own hash: the test hook that crowds probe chains with distinct
// keys. Everything else — the == compare, string interning, growth — is
// KeyBy's index.
type collidingKey[R any, K comparable] struct {
	key func(R) K
	h   func(K) uint64
}

func (c collidingKey[R, K]) same(a, b R) bool { return c.key(a) == c.key(b) }

func (c collidingKey[R, K]) index() index[R] {
	ix := newKeyIndex(c.key)
	ix.kind, ix.other = hashOther, c.h
	return ix
}

// collidingPairKey is collidingKey over the pairs most tests fold.
func collidingPairKey(h func(string) uint64) Key[core.Pair[string, int64]] {
	return collidingKey[core.Pair[string, int64], string]{func(p core.Pair[string, int64]) string { return p.Key }, h}
}

// pairIndex is a table's index, built if no lookup has built it yet.
func pairIndex(tab *combineTable[core.Pair[string, int64]]) *keyIndex[core.Pair[string, int64], string] {
	if tab.idx == nil {
		tab.idx = tab.key.index()
	}
	return tab.idx.(*keyIndex[core.Pair[string, int64], string])
}

// TestCombineTableMatchesMapFold drives the table against a plain map fold
// with the index hash forced onto five values: every probe chain is full of
// distinct keys sharing a hash, which must never merge, and 3 000 keys take
// the index from 64 slots through seven doublings. Entries must stay in
// first-seen order, the index's interned keys must be the entries' keys, and
// a reset table must behave like a new one.
func TestCombineTableMatchesMapFold(t *testing.T) {
	spec := pairSpec(1, true)
	hooked := 0
	spec.Key = collidingPairKey(func(k string) uint64 {
		hooked++
		return uint64(len(k)+int(k[0])) % 5
	})
	tab := newCombineTable(&spec)
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 2; round++ {
		want := map[string]int64{}
		var order []string
		for i := 0; i < 20000; i++ {
			k := fmt.Sprintf("%c%d", 'a'+rune(rng.Intn(3)), rng.Intn(1000))
			v := int64(rng.Intn(9))
			if _, ok := want[k]; !ok {
				order = append(order, k)
			}
			want[k] += v
			tab.add(core.KV(k, v))
		}
		if len(tab.entries) != len(order) {
			t.Fatalf("round %d: %d entries for %d distinct keys", round, len(tab.entries), len(order))
		}
		if hooked < 20000*(round+1) {
			t.Fatalf("round %d: the index hashed %d of %d keys through the test hook", round, hooked, 20000*(round+1))
		}
		ix := pairIndex(&tab)
		if len(ix.s) < 2*len(order) || len(ix.s) <= tableMinSlots {
			t.Errorf("round %d: %d slots index %d entries — the table never grew", round, len(ix.s), len(order))
		}
		for i, e := range tab.entries {
			if e.Key != order[i] {
				t.Fatalf("round %d: entry %d is %q, first-seen order has %q", round, i, e.Key, order[i])
			}
			if e.Value != want[e.Key] {
				t.Errorf("round %d: fold[%s] = %d, want %d", round, e.Key, e.Value, want[e.Key])
			}
			if k := ix.ents[i].k; k != e.Key || unsafe.StringData(k) == unsafe.StringData(e.Key) {
				t.Fatalf("round %d: index key %d is %q at %p, want an interned copy of %q", round, i, k, unsafe.StringData(k), e.Key)
			}
		}
		tab.reset()
	}
}

// TestIndexSeedDoesNotShowInEntries: the index hash is process-seeded, yet
// two tables under different seeds hold the same entries in the same order,
// for string and for integer keys — only the probe sequence differs.
func TestIndexSeedDoesNotShowInEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	words := make([]core.Pair[string, int64], 20000)
	ids := make([]core.Pair[int64, int64], len(words))
	for i := range words {
		n := rng.Intn(3000)
		words[i] = core.KV(fmt.Sprintf("w%d", n), int64(i))
		ids[i] = core.KV(int64(n)*7919-1<<40, int64(i))
	}
	sum := func(a, b int64) int64 { return a + b }
	fold := func(segs [][]core.Pair[string, int64], seed maphash.Seed) []core.Pair[string, int64] {
		f := NewFold(PairKey[string, int64](), func(a, b core.Pair[string, int64]) core.Pair[string, int64] {
			return core.KV(a.Key, sum(a.Value, b.Value))
		})
		f.t.idx = f.t.key.index()
		f.t.idx.(*keyIndex[core.Pair[string, int64], string]).seed = seed
		for _, seg := range segs {
			f.Add(seg)
		}
		return f.Drain()
	}
	a, b := maphash.MakeSeed(), maphash.MakeSeed()
	if maphash.String(a, "w1") == maphash.String(b, "w1") {
		t.Fatal("two fresh seeds hash a key alike")
	}
	if x, y := fold([][]core.Pair[string, int64]{words}, a), fold([][]core.Pair[string, int64]{words}, b); !slices.Equal(x, y) {
		t.Errorf("string keys: seeds give different entries:\n%v\n%v", x[:5], y[:5])
	}
	ifold := func(iseed uint64) []core.Pair[int64, int64] {
		tab := combineTable[core.Pair[int64, int64]]{key: PairKey[int64, int64](), merge: func(a, b core.Pair[int64, int64]) core.Pair[int64, int64] {
			return core.KV(a.Key, sum(a.Value, b.Value))
		}}
		tab.idx = tab.key.index()
		tab.idx.(*keyIndex[core.Pair[int64, int64], int64]).iseed = iseed
		tab.addAll(ids)
		return tab.take()
	}
	if x, y := ifold(1), ifold(0x9e3779b97f4a7c15); !slices.Equal(x, y) {
		t.Errorf("int64 keys: seeds give different entries:\n%v\n%v", x[:5], y[:5])
	}
}

// TestWarmLookupAllocatesNothing: once a key is in the index, finding it
// again costs no allocation, for string and for int64 keys.
func TestWarmLookupAllocatesNothing(t *testing.T) {
	words := make([]core.Pair[string, int64], 500)
	ids := make([]core.Pair[int64, int64], len(words))
	for i := range words {
		words[i] = core.KV(fmt.Sprintf("word%d", i), int64(1))
		ids[i] = core.KV(int64(i)<<20, int64(1))
	}
	sx := PairKey[string, int64]().index()
	ix := PairKey[int64, int64]().index()
	for i := range words {
		sx.lookup(words[i])
		ix.lookup(ids[i])
	}
	for name, probe := range map[string]func(){
		"string": func() {
			for _, w := range words {
				if _, seen := sx.lookup(w); !seen {
					t.Fatalf("%q lost", w.Key)
				}
			}
		},
		"int64": func() {
			for _, id := range ids {
				if _, seen := ix.lookup(id); !seen {
					t.Fatalf("%d lost", id.Key)
				}
			}
		},
	} {
		if n := testing.AllocsPerRun(20, probe); n != 0 {
			t.Errorf("%s keys: %v allocations per warm pass, want 0", name, n)
		}
	}
}

// TestHeldRecordsGrowByDoubling feeds a no-combine sort writer 100 000
// records in 256-record batches, as a TeraSort map task feeds its writer, and
// watches the buffer that holds them. Grown by memory.Append it takes 10
// arrays (256 up to 131 072 records), 2.6 times the records held in all.
// Grown by Go's append, ≈ 1.25× a step past 256 elements, it took 21 arrays, 5.9
// times the records held.
func TestHeldRecordsGrowByDoubling(t *testing.T) {
	const batches, batch = 391, 256
	w := newSortWriter(pairSpec(4, false), Env{Settings: Settings{Kind: Sort}})
	defer w.Abort()
	recs, _ := wordRecords(batch)
	arrays, allocated := 0, 0
	for range batches {
		before := cap(w.held.entries)
		if err := w.WriteBatch(recs); err != nil {
			t.Fatal(err)
		}
		if c := cap(w.held.entries); c != before {
			arrays++
			allocated += c
		}
	}
	held := len(w.held.entries)
	ratio := float64(allocated) / float64(held)
	t.Logf("%d records held: %d arrays, %.2f times the records held", held, arrays, ratio)
	if arrays > 10 || ratio > 3 {
		t.Errorf("holding %d records took %d arrays, %.2f times the records held; want at most 10 and 3", held, arrays, ratio)
	}
}

func TestGroupByKeyKeepsFirstSeenAndArrivalOrder(t *testing.T) {
	spec := pairSpec(1, false)
	spec.Key = collidingPairKey(func(string) uint64 { return 7 }) // every key collides
	run := []core.Pair[string, int64]{
		core.KV("b", int64(1)), core.KV("a", int64(2)), core.KV("b", int64(3)),
		core.KV("c", int64(4)), core.KV("a", int64(5)), core.KV("b", int64(6)),
	}
	want := []core.Pair[string, int64]{
		core.KV("b", int64(1)), core.KV("b", int64(3)), core.KV("b", int64(6)),
		core.KV("a", int64(2)), core.KV("a", int64(5)),
		core.KV("c", int64(4)),
	}
	if got := groupByKey(run, &spec); !reflect.DeepEqual(got, want) {
		t.Errorf("groupByKey = %v, want %v", got, want)
	}
}

// wideRecords draws from a vocabulary wide enough that the held entries of
// a combining writer cross several memCheckEvery boundaries.
func wideRecords(n, vocab int) ([]core.Pair[string, int64], map[string]int64) {
	rng := rand.New(rand.NewSource(17))
	recs := make([]core.Pair[string, int64], n)
	want := map[string]int64{}
	for i := range recs {
		w := fmt.Sprintf("w%05d", rng.Intn(vocab))
		recs[i] = core.KV(w, int64(1))
		want[w]++
	}
	return recs, want
}

// TestCombiningWriterSpillsOnRefusedGrant: grants are asked for per
// memCheckEvery HELD entries, so a writer refused after two grants spills
// (sort) or drains (hash) with ~3 k distinct keys in hand, more than once
// over 9 000 keys — and what the reduce side folds out of its blocks is what
// it folds out of the never-refused writer's.
func TestCombiningWriterSpillsOnRefusedGrant(t *testing.T) {
	recs, want := wideRecords(40000, 9000)
	for _, kind := range []Kind{Hash, Sort} {
		for _, runLevel := range []bool{false, true} {
			name := fmt.Sprintf("%v/runLevel=%v", kind, runLevel)
			spec := pairSpec(3, !runLevel)
			if runLevel {
				spec.Less = nil
				spec.CombineRun = sumRuns(t, name)
			}
			roomy := &metrics.JobMetrics{}
			base := runWriter(t, spec, Env{Settings: Settings{Kind: kind}, Metrics: roomy}, recs)
			if roomy.SpillCount.Load() != 0 {
				t.Fatalf("%s: %d spills with every grant honoured", name, roomy.SpillCount.Load())
			}
			// No spill: the combiner saw every record once and left one per
			// key, whichever structure did the folding.
			if in, out := roomy.CombineInputRecords.Load(), roomy.CombineOutputRecs.Load(); in != int64(len(recs)) || out != int64(len(want)) {
				t.Errorf("%s: combine counted %d → %d, want %d → %d", name, in, out, len(recs), len(want))
			}

			tight := &metrics.JobMetrics{}
			var granted, freed int64
			got := runWriter(t, spec, Env{
				Settings: Settings{Kind: kind},
				Metrics:  tight,
				Mem: func(n int64) bool {
					if granted >= 2*memQuantum {
						return false
					}
					granted += n
					return true
				},
				Free: func(n int64) { freed += n },
			}, recs)
			if tight.SpillCount.Load() < 2 {
				t.Errorf("%s: %d spills with grants refused after two quanta", name, tight.SpillCount.Load())
			}
			if freed != granted {
				t.Errorf("%s: freed %d of %d granted bytes", name, freed, granted)
			}
			if !reflect.DeepEqual(got, base) || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: reduced output differs between the spilling and the no-spill writer", name)
			}
		}
	}
}

// sumRuns is a run-level combiner that fails the test when a key reaches it
// in two separate groups of one run.
func sumRuns(t *testing.T, name string) func(run []core.Pair[string, int64]) []core.Pair[string, int64] {
	return func(run []core.Pair[string, int64]) []core.Pair[string, int64] {
		var out []core.Pair[string, int64]
		seen := map[string]bool{}
		for _, kv := range run {
			if n := len(out); n > 0 && out[n-1].Key == kv.Key {
				out[n-1].Value += kv.Value
				continue
			}
			if seen[kv.Key] {
				t.Errorf("%s: CombineRun got key %q in two groups of one run", name, kv.Key)
			}
			seen[kv.Key] = true
			out = append(out, kv)
		}
		return out
	}
}

// FuzzCombineTable drives the table all three engines fold through with
// arbitrary byte keys under an index hash of at most four values, so every probe
// chain is crowded with distinct keys that must not merge, and holds its
// entries — contents and first-seen order — to a Go-map fold. The input is a
// list of operations: 0xF0 resets the table, 0xF1 doubles its index ahead of
// need (up to 65 536 slots), 0xF2 takes its entries away; any other byte is a key's length (low
// four bits) followed by the key, added on its own when bit 4 is set and
// otherwise gathered with its neighbours into one addAll. The merge is not
// commutative, so a fold in the wrong order shows.
func FuzzCombineTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01a\x01b\x01a\x11a\x02ab\x02ba\x12ab"))
	f.Add([]byte("\x01a\xf0\x01b\x01a\xf1\x01a\xf2\x01b\xf1\xf1\x11b"))
	f.Add([]byte("\x00\x10\x00\xf2\x00\x04word\x14word\x05words"))
	wide := []byte{0xF1}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 600; i++ {
		k := fmt.Sprintf("%d", rng.Intn(200))
		wide = append(append(wide, byte(len(k))|byte(rng.Intn(2))<<4), k...)
		if i%250 == 249 {
			wide = append(wide, 0xF0)
		}
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		type rec = core.Pair[string, int64]
		merge := func(a, b int64) int64 { return 31*a + b }
		tab := combineTable[rec]{
			key:   collidingPairKey(func(k string) uint64 { return uint64(len(k)) & 3 }),
			merge: func(a, b rec) rec { return core.KV(a.Key, merge(a.Value, b.Value)) },
		}
		want := map[string]int64{}
		var order []string
		var batch []rec
		check := func(got []rec) {
			t.Helper()
			if len(got) != len(order) {
				t.Fatalf("%d entries for %d distinct keys", len(got), len(order))
			}
			for i, e := range got {
				if e.Key != order[i] || e.Value != want[e.Key] {
					t.Fatalf("entry %d is %q = %d, the map fold has %q = %d there", i, e.Key, e.Value, order[i], want[order[i]])
				}
			}
		}
		forget := func() {
			clear(want)
			order = order[:0]
		}
		for n := int64(0); len(data) > 0; n++ {
			op := data[0]
			data = data[1:]
			if op < 0xF0 {
				k := min(int(op&15), len(data))
				r := core.KV(string(data[:k]), n)
				data = data[k:]
				if acc, ok := want[r.Key]; ok {
					want[r.Key] = merge(acc, r.Value)
				} else {
					want[r.Key] = r.Value
					order = append(order, r.Key)
				}
				if op&16 == 0 {
					batch = append(batch, r)
					continue
				}
				tab.addAll(batch)
				batch = batch[:0]
				tab.add(r)
				continue
			}
			tab.addAll(batch)
			batch = batch[:0]
			switch op {
			case 0xF0:
				check(tab.entries)
				tab.reset()
				forget()
			case 0xF1:
				if ix := pairIndex(&tab); len(ix.s) < 1<<16 { // a run of these must not double the index without bound
					growSlots(&ix.slots, ix.ents)
				}
			case 0xF2:
				check(tab.take())
				forget()
			}
		}
		tab.addAll(batch)
		check(tab.entries)
	})
}

// TestClosureKeyWritesLikeKeyBy: a combining Spec that gives Hash and Same
// instead of a Key — here a weak hash — folds through the closure index to
// the very blocks KeyBy's index gives, under both strategies and both
// combiners.
func TestClosureKeyWritesLikeKeyBy(t *testing.T) {
	recs, _ := wideRecords(20000, 3000)
	blocks := func(spec Spec[core.Pair[string, int64]], kind Kind) map[int][]byte {
		out := map[int][]byte{}
		w := NewWriter(spec, Env{Settings: Settings{Kind: kind}, Emit: func(part int, b Block) error {
			out[part] = append(out[part], b.Bytes()...)
			b.Release()
			return nil
		}})
		if err := w.WriteBatch(recs); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, kind := range []Kind{Hash, Sort} {
		for _, runLevel := range []bool{false, true} {
			name := fmt.Sprintf("%v/runLevel=%v", kind, runLevel)
			typed := pairSpec(3, !runLevel)
			typed.Less = nil
			if runLevel {
				typed.CombineRun = sumRuns(t, name)
			}
			closure := typed
			closure.Key = nil
			closure.Same = func(a, b core.Pair[string, int64]) bool { return a.Key == b.Key }
			closure.Hash = func(p core.Pair[string, int64]) uint64 { return uint64(len(p.Key)) }
			if got, want := blocks(closure, kind), blocks(typed, kind); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: the closure key writes other blocks than KeyBy's", name)
			}
		}
	}
}
