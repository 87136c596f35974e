package shuffle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/serde"
)

// pairSpec is the canonical word-count-shaped edge used by most tests.
func pairSpec(parts int, combine bool) Spec[core.Pair[string, int64]] {
	s := Spec[core.Pair[string, int64]]{
		NumParts: parts,
		Codec:    serde.OfPair[string, int64](serde.TypeInfo),
		Route: func(p core.Pair[string, int64]) int {
			return int(core.HashKey(p.Key) % uint64(parts))
		},
		Less: func(a, b core.Pair[string, int64]) bool { return a.Key < b.Key },
		Key:  PairKey[string, int64](),
	}
	if combine {
		s.Merge = func(a, b core.Pair[string, int64]) core.Pair[string, int64] {
			return core.KV(a.Key, a.Value+b.Value)
		}
	}
	return s
}

// collectBlocks runs records through a writer and returns the final block
// per partition plus any pipelined flushes, decoded.
func runWriter(t *testing.T, spec Spec[core.Pair[string, int64]], env Env,
	recs []core.Pair[string, int64]) map[string]int64 {
	t.Helper()
	blocks := make(map[int][]Block)
	if env.Emit == nil {
		env.Emit = func(part int, b Block) error {
			blocks[part] = append(blocks[part], b)
			return nil
		}
	}
	w := NewWriter(spec, env)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	totals := map[string]int64{}
	for part, bs := range blocks {
		decoded, err := DecodeBlocks(env.Settings, spec.Codec, bs)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range decoded {
			for _, kv := range seg {
				totals[kv.Key] += kv.Value
				if got := spec.Route(kv); got != part {
					t.Errorf("record %q landed in partition %d, routed to %d", kv.Key, part, got)
				}
			}
		}
	}
	return totals
}

func wordRecords(n int) ([]core.Pair[string, int64], map[string]int64) {
	rng := rand.New(rand.NewSource(7))
	recs := make([]core.Pair[string, int64], n)
	want := map[string]int64{}
	for i := range recs {
		w := fmt.Sprintf("word%03d", rng.Intn(200))
		recs[i] = core.KV(w, int64(1))
		want[w]++
	}
	return recs, want
}

func TestWriterStrategiesAgree(t *testing.T) {
	recs, want := wordRecords(5000)
	for _, kind := range []Kind{Hash, Sort} {
		for _, combine := range []bool{true, false} {
			name := fmt.Sprintf("%v/combine=%v", kind, combine)
			m := &metrics.JobMetrics{}
			got := runWriter(t, pairSpec(4, combine),
				Env{Settings: Settings{Kind: kind}, Metrics: m}, recs)
			if len(got) != len(want) {
				t.Fatalf("%s: %d distinct keys, want %d", name, len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Errorf("%s: count[%s] = %d, want %d", name, k, got[k], v)
				}
			}
			if combine && m.CombineRatio() <= 1 {
				t.Errorf("%s: combine ratio %.2f, want > 1", name, m.CombineRatio())
			}
		}
	}
}

func TestSortWriterBlocksAreKeySorted(t *testing.T) {
	recs, _ := wordRecords(3000)
	spec := pairSpec(3, true)
	// The threshold counts held entries — distinct keys — so it sits below
	// the 200-word vocabulary.
	set := Settings{Kind: Sort, SpillRecs: 50}
	m := &metrics.JobMetrics{}
	blocks := map[int]Block{}
	w := NewWriter(spec, Env{Settings: set, Metrics: m, Emit: func(part int, b Block) error {
		blocks[part] = b
		return nil
	}})
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if m.SpillCount.Load() == 0 {
		t.Error("no spills despite a 50-entry threshold over 200 distinct keys")
	}
	for part, blk := range blocks {
		seg, err := DecodeBlocks(set, spec.Codec, []Block{blk})
		if err != nil {
			t.Fatal(err)
		}
		if !sort.SliceIsSorted(seg[0], func(i, j int) bool { return seg[0][i].Key < seg[0][j].Key }) {
			t.Errorf("partition %d block not key-sorted", part)
		}
		// Runs were merged and recombined: each key appears once.
		seen := map[string]bool{}
		for _, kv := range seg[0] {
			if seen[kv.Key] {
				t.Errorf("partition %d: key %q appears twice after merge-combine", part, kv.Key)
			}
			seen[kv.Key] = true
		}
	}
}

func TestSortWriterSpillsOnMemoryPressure(t *testing.T) {
	recs, want := wordRecords(8000)
	m := &metrics.JobMetrics{}
	granted, freed := int64(0), int64(0)
	var denies int
	env := Env{
		Settings: Settings{Kind: Sort},
		Metrics:  m,
		Mem: func(n int64) bool {
			if granted >= 2*memQuantum {
				denies++
				return false
			}
			granted += n
			return true
		},
		Free: func(n int64) { freed += n },
	}
	got := runWriter(t, pairSpec(2, false), env, recs)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%s] = %d, want %d", k, got[k], v)
		}
	}
	if denies == 0 || m.SpillCount.Load() == 0 {
		t.Errorf("denies=%d spills=%d, want both > 0", denies, m.SpillCount.Load())
	}
	if freed != granted {
		t.Errorf("freed %d of %d granted bytes", freed, granted)
	}
}

func TestHashWriterPipelinedFlush(t *testing.T) {
	recs, want := wordRecords(4000)
	flushes := 0
	blocks := make(map[int][]Block)
	set := Settings{Kind: Hash, FlushBytes: 512}
	env := Env{Settings: set, Emit: func(part int, b Block) error {
		flushes++
		blocks[part] = append(blocks[part], b)
		return nil
	}}
	spec := pairSpec(2, false)
	w := NewWriter(spec, env)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, bs := range blocks {
		decoded, err := DecodeBlocks(set, spec.Codec, bs)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range decoded {
			for _, kv := range seg {
				got[kv.Key] += kv.Value
			}
		}
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%s] = %d, want %d", k, got[k], v)
		}
	}
	if flushes <= spec.NumParts {
		t.Errorf("%d emits for 4000 records with a 512B flush threshold — not pipelined", flushes)
	}
}

func TestWriterEmitsEmptyPartitionsAtClose(t *testing.T) {
	for _, kind := range []Kind{Hash, Sort} {
		emitted := map[int]int{}
		env := Env{Settings: Settings{Kind: kind}, Emit: func(part int, b Block) error {
			emitted[part]++
			return nil
		}}
		w := NewWriter(pairSpec(4, false), env)
		if err := w.Write(core.KV("only", int64(1))); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 4; p++ {
			if emitted[p] == 0 {
				t.Errorf("%v: partition %d got no Close block", kind, p)
			}
		}
	}
}

// TestWriterRejectsBadRoute: an out-of-range route must surface as an
// error by Close at the latest (the sort writer defers Route to cut, so
// Write itself stays a plain append).
func TestWriterRejectsBadRoute(t *testing.T) {
	for _, kind := range []Kind{Hash, Sort} {
		spec := pairSpec(2, false)
		spec.Route = func(core.Pair[string, int64]) int { return 7 }
		env := Env{Settings: Settings{Kind: kind}, Emit: func(int, Block) error { return nil }}
		w := NewWriter(spec, env)
		err := w.Write(core.KV("x", int64(1)))
		if err == nil {
			err = w.Close()
		}
		if err == nil {
			t.Errorf("%v: out-of-range route accepted", kind)
		}
		w = NewWriter(spec, env)
		err = w.WriteBatch([]core.Pair[string, int64]{core.KV("x", int64(1))})
		if err == nil {
			err = w.Close()
		}
		if err == nil {
			t.Errorf("%v: out-of-range batch route accepted", kind)
		}
	}
}

// memStore is a SpillStore double that tracks lifecycle.
type memStore struct {
	m       map[string]Block
	writes  int
	removes int
}

func (s *memStore) Write(run, part int, b Block) (string, error) {
	if s.m == nil {
		s.m = map[string]Block{}
	}
	h := fmt.Sprintf("run%d-p%d", run, part)
	s.m[h] = b
	s.writes++
	return h, nil
}
func (s *memStore) Read(h string) (Block, error) {
	b, ok := s.m[h]
	if !ok {
		return Block{}, fmt.Errorf("missing %s", h)
	}
	return b.Borrow(), nil
}
func (s *memStore) Remove(h string) {
	b := s.m[h]
	b.Release()
	delete(s.m, h)
	s.removes++
}

func TestSortWriterSpillStoreLifecycle(t *testing.T) {
	recs, want := wordRecords(4000)
	store := &memStore{}
	env := Env{Settings: Settings{Kind: Sort, SpillRecs: 60}, Metrics: &metrics.JobMetrics{}, Spill: store}
	got := runWriter(t, pairSpec(2, true), env, recs)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%s] = %d, want %d", k, got[k], v)
		}
	}
	if store.writes == 0 {
		t.Fatal("spill store never used")
	}
	if store.removes != store.writes {
		t.Errorf("%d of %d spill segments removed after Close", store.removes, store.writes)
	}
	if len(store.m) != 0 {
		t.Errorf("%d spill segments leaked after Close", len(store.m))
	}
}

// TestSortWriterReturnsEveryBuffer: every buffer a sort writer draws from
// the pool goes back to it once its last reader is done — a resident run at
// Close after it is decoded, a run held by a SpillStore when the store removes
// it, an emitted block when its receiver releases it — whether the writer
// closes or aborts.
func TestSortWriterReturnsEveryBuffer(t *testing.T) {
	recs, _ := wordRecords(4000)
	for _, store := range []*memStore{nil, {}} {
		for _, abort := range []bool{false, true} {
			name := fmt.Sprintf("store %v, abort %v", store != nil, abort)
			env := Env{
				Settings: Settings{Kind: Sort, SpillRecs: 300},
				Metrics:  &metrics.JobMetrics{},
				Emit:     func(_ int, b Block) error { b.Release(); return nil },
			}
			if store != nil {
				env.Spill = store
			}
			gets0, puts0, _ := memory.DefaultPool.Stats()
			w := NewWriter(pairSpec(3, false), env)
			for i := 0; i < len(recs); i += 100 {
				if err := w.WriteBatch(recs[i:min(i+100, len(recs))]); err != nil {
					t.Fatal(err)
				}
			}
			if abort {
				w.Abort()
			} else if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			gets, puts, _ := memory.DefaultPool.Stats()
			if env.Metrics.SpillCount.Load() < 2 {
				t.Fatalf("%s: the writer spilled %d runs, want several", name, env.Metrics.SpillCount.Load())
			}
			if gets-gets0 != puts-puts0 {
				t.Errorf("%s: %d buffers drawn from the pool, %d returned", name, gets-gets0, puts-puts0)
			}
		}
	}
}

// A failed attempt ends in Abort instead of Close: under either strategy
// every memory grant returns, the spilled runs leave the store and nothing is
// emitted.
func TestAbortReturnsGrantsAndSpills(t *testing.T) {
	recs, _ := wordRecords(8000)
	for _, tc := range []struct {
		name    string
		set     Settings
		combine bool
	}{
		{"hash combining", Settings{Kind: Hash}, true},
		{"sort", Settings{Kind: Sort, SpillRecs: 3000}, false},
	} {
		store := &memStore{}
		var granted, freed int64
		w := NewWriter(pairSpec(2, tc.combine), Env{
			Settings: tc.set,
			Metrics:  &metrics.JobMetrics{},
			Spill:    store,
			Mem:      func(n int64) bool { granted += n; return true },
			Free:     func(n int64) { freed += n },
			Emit: func(int, Block) error {
				t.Errorf("%s: Abort emitted a block", tc.name)
				return nil
			},
		})
		// Distinct keys, so the combining table grows and asks for memory.
		for i, r := range recs {
			r.Key = fmt.Sprintf("%s-%d", r.Key, i)
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if granted == 0 {
			t.Fatalf("%s: no memory granted, the test aborts nothing", tc.name)
		}
		if tc.set.Kind == Sort && store.writes == 0 {
			t.Fatalf("%s: nothing spilled, the test removes nothing", tc.name)
		}
		w.Abort()
		if freed != granted {
			t.Errorf("%s: freed %d of %d granted bytes", tc.name, freed, granted)
		}
		if len(store.m) != 0 {
			t.Errorf("%s: %d spill segments left after Abort", tc.name, len(store.m))
		}
	}
}

func TestCompressionRoundTrip(t *testing.T) {
	set := Settings{Compress: CompressorFor("lz")}
	samples := [][]byte{
		nil,
		[]byte("a"),
		bytes.Repeat([]byte("the quick brown fox "), 500),
		[]byte{0, 1, 2, 3, 255, 254, 0, 0, 0, 7},
	}
	rng := rand.New(rand.NewSource(3))
	random := make([]byte, 4096)
	rng.Read(random)
	samples = append(samples, random)
	for i, raw := range samples {
		packed := Pack(set, raw)
		back, err := Unpack(set, packed)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if !bytes.Equal(back, raw) {
			t.Errorf("sample %d: round trip mismatch", i)
		}
	}
	// Repetitive data must actually shrink.
	rep := bytes.Repeat([]byte("wordcount "), 1000)
	if packed := Pack(set, rep); len(packed) >= len(rep) {
		t.Errorf("repetitive 10KB block packed to %d bytes", len(packed))
	}
	// No codec: bytes pass through untouched.
	if got := Pack(Settings{}, rep); &got[0] != &rep[0] {
		t.Error("Pack without codec copied the block")
	}
}

func TestUnpackRejectsCorruptFrames(t *testing.T) {
	set := Settings{Compress: CompressorFor("lz")}
	packed := Pack(set, bytes.Repeat([]byte("abc"), 100))
	for _, corrupt := range [][]byte{
		{99, 1, 2}, // unknown tag
		packed[:1], // truncated varint
		packed[:len(packed)/2],
	} {
		if _, err := Unpack(set, corrupt); err == nil {
			t.Errorf("corrupt frame %v... accepted", corrupt[:min(3, len(corrupt))])
		}
	}
}

// FuzzUnpack: arbitrary bytes into Unpack, with and without the lz codec,
// return raw bytes or an error and never panic — a frame's raw length must
// not size a buffer it cannot fill. The same bytes Packed come back from
// Unpack unchanged; a decompressed frame comes back in a buffer of its own,
// since DecodeBlocks decodes it in place (clearing the frame afterwards must
// not show through); and a frame cut short by a byte, re-framed with a
// raw length one too long, or given an unknown tag is an error.
func FuzzUnpack(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("a"))
	f.Add(bytes.Repeat([]byte("the quick brown fox "), 50))
	f.Add([]byte{0, 1, 2, 3, 255, 254, 0, 0, 0, 7})
	f.Add([]byte{frameLZ, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x80, 1, 0})
	f.Add([]byte{frameLZ, 8, 0, 'a', 0x84, 1, 0})
	lz := Settings{Compress: CompressorFor("lz")}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, set := range []Settings{{}, lz} {
			if raw, err := Unpack(set, data); err == nil && set.Compress == nil && !bytes.Equal(raw, data) {
				t.Fatal("Unpack without a codec changed the bytes")
			}
		}

		frame := Pack(lz, data)
		if len(frame) != cap(frame) {
			t.Fatalf("Pack left a %d-byte frame in a %d-byte buffer", len(frame), cap(frame))
		}
		raw, err := Unpack(lz, frame)
		if err != nil || !bytes.Equal(raw, data) {
			t.Fatalf("Pack→Unpack = %d bytes, %v; want the %d packed", len(raw), err, len(data))
		}
		if frame[0] == frameLZ {
			clear(frame[1:])
			if !bytes.Equal(raw, data) {
				t.Fatal("a decompressed frame's bytes alias the frame")
			}
			frame = Pack(lz, data)
		}

		n := len(frame) - len(binary.AppendUvarint(nil, uint64(len(data)))) - 1
		payload := frame[len(frame)-n:]
		longer := append(binary.AppendUvarint([]byte{frame[0]}, uint64(len(data))+1), payload...)
		unknown := append([]byte{frameLZ + 1}, frame[1:]...)
		for name, corrupt := range map[string][]byte{
			"cut short": frame[:len(frame)-1], "one byte too long": longer, "of an unknown tag": unknown,
		} {
			if _, err := Unpack(lz, corrupt); err == nil {
				t.Errorf("a frame %s was accepted", name)
			}
		}
	})
}

func TestMergeStableAndSorted(t *testing.T) {
	segs := [][]core.Pair[string, int64]{
		{core.KV("a", int64(1)), core.KV("c", int64(1)), core.KV("e", int64(1))},
		{core.KV("a", int64(2)), core.KV("b", int64(2))},
		nil,
		{core.KV("b", int64(3)), core.KV("e", int64(3))},
	}
	less := func(a, b core.Pair[string, int64]) bool { return a.Key < b.Key }
	got := Merge(segs, less)
	want := []core.Pair[string, int64]{
		core.KV("a", int64(1)), core.KV("a", int64(2)),
		core.KV("b", int64(2)), core.KV("b", int64(3)),
		core.KV("c", int64(1)),
		core.KV("e", int64(1)), core.KV("e", int64(3)),
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Merge = %v, want %v", got, want)
	}
}

// seqSubtasker runs subtasks inline, recording the calls.
type seqSubtasker struct{ calls, fns int }

func (s *seqSubtasker) Subtasks(node int, fns []func() error) error {
	s.calls++
	s.fns += len(fns)
	for _, fn := range fns {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

func TestParallelMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var segs [][]int
	total := 0
	for s := 0; s < 30; s++ {
		n := rng.Intn(50)
		seg := make([]int, n)
		for i := range seg {
			seg[i] = rng.Intn(1000)
		}
		sort.Ints(seg)
		segs = append(segs, seg)
		total += n
	}
	less := func(a, b int) bool { return a < b }
	ex := &seqSubtasker{}
	got := ParallelMerge(ex, 0, segs, less, nil)
	if len(got) != total {
		t.Fatalf("merged %d records, want %d", len(got), total)
	}
	if !sort.IntsAreSorted(got) {
		t.Error("parallel merge output not sorted")
	}
	if ex.calls == 0 || ex.fns == 0 {
		t.Error("30 segments merged without subtasks")
	}
	if seq := Merge(segs, less); fmt.Sprint(seq) != fmt.Sprint(got) {
		t.Error("parallel and sequential merges disagree")
	}
}

// TestMergeDuplicateHeavy merges eleven segments of a five-key vocabulary —
// enough for ParallelMerge to group them, one of them a single record that
// is exhausted at once, one empty — and holds both merges to a stable sort of
// the segments' concatenation: equal keys drain in segment order, and within
// a segment in its own order. The values say where each record came from.
func TestMergeDuplicateHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var segs [][]kv
	for s := 0; s < 11; s++ {
		n := 40 + rng.Intn(40)
		switch s {
		case 2:
			n = 1
		case 6:
			n = 0
		}
		seg := make([]kv, n)
		for i := range seg {
			seg[i].Key = fmt.Sprint("k", rng.Intn(5))
		}
		sort.SliceStable(seg, func(i, j int) bool { return seg[i].Key < seg[j].Key })
		for i := range seg {
			seg[i].Value = int64(1000*s + i)
		}
		segs = append(segs, seg)
	}
	less := func(a, b kv) bool { return a.Key < b.Key }
	want := slices.Concat(segs...)
	sort.SliceStable(want, func(i, j int) bool { return less(want[i], want[j]) })
	if got := Merge(segs, less); !slices.Equal(got, want) {
		t.Errorf("Merge is not the stable sort of the segments in order:\n got %v\nwant %v", got, want)
	}
	ex := &seqSubtasker{}
	if got := ParallelMerge(ex, 0, segs, less, nil); !slices.Equal(got, want) {
		t.Errorf("ParallelMerge is not the stable sort of the segments in order:\n got %v\nwant %v", got, want)
	}
	if ex.fns < 2 {
		t.Errorf("ParallelMerge ran %d group merges over ten non-empty segments, want at least 2", ex.fns)
	}
}

// mapFoldFirstSeen is FoldFirstSeen as it stood before the table: a Go map of
// accumulators and a slice of keys in first-seen order. The reference the
// shared fold is held to.
func mapFoldFirstSeen[K comparable, C any](segs [][]core.Pair[K, C], merge func(C, C) C) []core.Pair[K, C] {
	merged := make(map[K]C)
	var order []K
	for _, seg := range segs {
		for _, rec := range seg {
			if acc, ok := merged[rec.Key]; ok {
				merged[rec.Key] = merge(acc, rec.Value)
			} else {
				merged[rec.Key] = rec.Value
				order = append(order, rec.Key)
			}
		}
	}
	out := make([]core.Pair[K, C], 0, len(order))
	for _, k := range order {
		out = append(out, core.KV(k, merged[k]))
	}
	return out
}

// TestFoldFirstSeen holds the shared reduce-side fold — FoldFirstSeen over
// whole segments, and a Fold fed the same segments one batch at a time under
// a hash that makes every key of a length collide — to the map fold, record
// for record. The merge is not commutative, so the order values fold in is
// checked too.
func TestFoldFirstSeen(t *testing.T) {
	type seg = []core.Pair[string, int64]
	many := make(seg, 0, 5000)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < cap(many); i++ {
		many = append(many, core.KV(fmt.Sprintf("k%d", rng.Intn(1500)), int64(i)))
	}
	cases := []struct {
		name string
		segs []seg
	}{
		{"first-seen order across segments", []seg{
			{core.KV("b", int64(1)), core.KV("a", int64(1))},
			{core.KV("a", int64(2)), core.KV("c", int64(5))}}},
		{"no segments", nil},
		{"empty segments", []seg{{}, nil, {}}},
		{"one key", []seg{{core.KV("x", int64(3))}, {}, {core.KV("x", int64(4)), core.KV("x", int64(5))}}},
		{"a key first seen in a later segment", []seg{
			{core.KV("a", int64(1)), core.KV("b", int64(2))},
			{core.KV("b", int64(3))},
			{core.KV("z", int64(4)), core.KV("a", int64(5)), core.KV("z", int64(6))}}},
		{"same-length keys share a full hash", []seg{
			{core.KV("ab", int64(1)), core.KV("ba", int64(2)), core.KV("ab", int64(3))},
			{core.KV("cc", int64(4)), core.KV("ba", int64(5)), core.KV("c", int64(6))}}},
		{"an index that grows", []seg{many[:100], many[100:3000], many[3000:]}},
	}
	merge := func(a, b int64) int64 { return 31*a + b }
	for _, c := range cases {
		want := mapFoldFirstSeen(c.segs, merge)
		if got := FoldFirstSeen(c.segs, merge); !slices.Equal(got, want) {
			t.Errorf("%s: FoldFirstSeen = %v, the map fold gives %v", c.name, got, want)
		}
		f := NewFold(collidingPairKey(func(k string) uint64 { return uint64(len(k)) }),
			func(a, b core.Pair[string, int64]) core.Pair[string, int64] {
				return core.KV(a.Key, merge(a.Value, b.Value))
			})
		for _, seg := range c.segs {
			f.Add(seg)
		}
		if got := f.Drain(); !slices.Equal(got, want) {
			t.Errorf("%s: a Fold under colliding hashes drains %v, the map fold gives %v", c.name, got, want)
		}
		if left := f.Drain(); len(left) != 0 {
			t.Errorf("%s: a drained Fold still holds %v", c.name, left)
		}
	}
}

func TestFromConf(t *testing.T) {
	conf := core.NewConfig()
	set := FromConf(conf, Hash)
	if set.Kind != Hash || set.Compress != nil || set.SpillBytes != 0 {
		t.Errorf("defaults not preserved: %+v", set)
	}
	conf.Set(core.ShuffleStrategy, "sort").
		Set(core.ShuffleCompress, "lz").
		SetBytes(core.ShuffleSpillThreshold, 64*core.KB)
	set = FromConf(conf, Hash)
	if set.Kind != Sort || set.Compress == nil || set.SpillBytes != 64*1024 {
		t.Errorf("conf not applied: %+v", set)
	}
	if ParseKind("bogus", Sort) != Sort {
		t.Error("unknown strategy should keep the default")
	}
}

// TestWriteBatchMatchesWrite pins the vectorized emit contract: feeding
// records through WriteBatch must leave the same per-partition wire bytes
// as writing them one at a time, for every strategy × combine setting and
// across odd batch widths.
func TestWriteBatchMatchesWrite(t *testing.T) {
	recs, _ := wordRecords(3000)
	wire := func(batch int, kind Kind, combine bool, set Settings) map[int][]byte {
		set.Kind = kind
		out := map[int][]byte{}
		env := Env{Settings: set, Emit: func(part int, b Block) error {
			out[part] = append(out[part], b.Bytes()...)
			b.Release()
			return nil
		}}
		w := NewWriter(pairSpec(4, combine), env)
		if batch <= 1 {
			for _, r := range recs {
				if err := w.Write(r); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for i := 0; i < len(recs); i += batch {
				end := i + batch
				if end > len(recs) {
					end = len(recs)
				}
				if err := w.WriteBatch(recs[i:end]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	// The combine table keeps first-seen order, so even hash+combine blocks
	// are deterministic: raw bytes compare everywhere.
	for _, kind := range []Kind{Hash, Sort} {
		for _, combine := range []bool{false, true} {
			want := wire(1, kind, combine, Settings{})
			for _, batch := range []int{3, 64, 256, 4096} {
				got := wire(batch, kind, combine, Settings{})
				for p, w := range want {
					if !bytes.Equal(got[p], w) {
						t.Fatalf("%v/combine=%v batch=%d: partition %d bytes differ", kind, combine, batch, p)
					}
				}
			}
		}
	}
	// Pipelined/spilling settings move block boundaries, not contents: the
	// concatenated decode must agree record-set-wise.
	for _, kind := range []Kind{Hash, Sort} {
		set := Settings{FlushBytes: 512, SpillRecs: 70}
		m := &metrics.JobMetrics{}
		got := runWriter(t, pairSpec(4, true), Env{Settings: Settings{Kind: kind, FlushBytes: set.FlushBytes, SpillRecs: set.SpillRecs}, Metrics: m}, recs)
		out := map[int][]byte{}
		env := Env{Settings: Settings{Kind: kind, FlushBytes: set.FlushBytes, SpillRecs: set.SpillRecs}, Emit: func(part int, b Block) error {
			out[part] = append(out[part], b.Bytes()...)
			return nil
		}}
		w := NewWriter(pairSpec(4, true), env)
		for i := 0; i < len(recs); i += 100 {
			end := i + 100
			if end > len(recs) {
				end = len(recs)
			}
			if err := w.WriteBatch(recs[i:end]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		spec := pairSpec(4, true)
		totals := map[string]int64{}
		for _, data := range out {
			decoded, err := serde.DecodeAll(spec.Codec, data)
			if err != nil {
				t.Fatal(err)
			}
			for _, kv := range decoded {
				totals[kv.Key] += kv.Value
			}
		}
		for k, v := range got {
			if totals[k] != v {
				t.Fatalf("%v batched+pipelined: count[%s] = %d, want %d", kind, k, totals[k], v)
			}
		}
	}
}
