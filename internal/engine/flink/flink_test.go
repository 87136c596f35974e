package flink

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/memory"
	"repro/internal/netsim"
	"repro/internal/serde"
)

// testEnv builds a small environment: 4 nodes × 4 slots.
func testEnv(t *testing.T, confEdit func(*core.Config)) *Env {
	t.Helper()
	spec := cluster.Spec{Nodes: 4, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 100, NetMiBps: 100}
	rt, err := cluster.NewRuntime(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	conf := core.NewConfig()
	conf.SetInt(core.FlinkDefaultParallelism, 4)
	conf.SetBytes(core.FlinkTaskManagerMemory, 64*core.MB)
	conf.SetInt(core.FlinkNetworkBuffers, 4096)
	if confEdit != nil {
		confEdit(conf)
	}
	fs := dfs.New(spec.Nodes, 4*core.KB, 2)
	return NewEnv(conf, rt, fs)
}

// fields splits a batch of lines into their words: a FlatMap as the
// MapPartition it lowers to.
func fields(lines []string) []string {
	var words []string
	for _, l := range lines {
		words = append(words, strings.Fields(l)...)
	}
	return words
}

// filterPart is a Filter as the MapPartition it lowers to.
func filterPart[T any](f func(T) bool) func([]T) []T {
	return func(in []T) []T {
		var out []T
		for _, v := range in {
			if f(v) {
				out = append(out, v)
			}
		}
		return out
	}
}

// sumValues adds the values of two pairs with one key.
func sumValues[K comparable](a, b core.Pair[K, int64]) core.Pair[K, int64] {
	return core.KV(a.Key, a.Value+b.Value)
}

func TestFromSliceCollect(t *testing.T) {
	e := testEnv(t, nil)
	data := make([]int64, 64)
	for i := range data {
		data[i] = int64(i)
	}
	ds := FromSlice(e, data, 4)
	got, err := Collect(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 64 {
		t.Fatalf("collected %d, want 64", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestWordCountGroupBySum(t *testing.T) {
	e := testEnv(t, nil)
	lines := []string{
		"the the the quick quick fox",
		"the the lazy lazy dog dog",
		"the quick dog dog dog brown",
	}
	ds := FromSlice(e, lines, 3)
	words := MapPartition(ds, fields)
	pairs := Map(words, func(w string) core.Pair[string, int64] { return core.KV(w, int64(1)) })
	counts := Reduce(GroupBy(pairs, func(p core.Pair[string, int64]) string { return p.Key }).WithParallelism(4),
		sumValues[string])
	got, err := Collect(counts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"the": 6, "quick": 3, "brown": 1, "fox": 1, "lazy": 2, "dog": 5}
	if len(got) != len(want) {
		t.Fatalf("got %d words, want %d: %v", len(got), len(want), got)
	}
	for _, p := range got {
		if want[p.Key] != p.Value {
			t.Errorf("count[%q] = %d, want %d", p.Key, p.Value, want[p.Key])
		}
	}
	if ratio := e.Metrics().CombineRatio(); ratio <= 1.0 {
		t.Errorf("combine ratio = %v, want > 1 (GroupCombine active)", ratio)
	}
}

func TestPipelineIsOneSchedulingRound(t *testing.T) {
	e := testEnv(t, nil)
	ds := FromSlice(e, []int64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	pairs := Map(ds, func(v int64) core.Pair[int64, int64] { return core.KV(v%2, v) })
	red := Reduce(GroupBy(pairs, func(p core.Pair[int64, int64]) int64 { return p.Key }).WithParallelism(2),
		func(a, b core.Pair[int64, int64]) core.Pair[int64, int64] { return core.KV(a.Key, a.Value+b.Value) })
	if _, err := Collect(red); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().SchedulingRounds.Load(); got != 1 {
		t.Errorf("pipelined job used %d scheduling rounds, want exactly 1", got)
	}
	if got := e.Metrics().Stages.Load(); got != 1 {
		t.Errorf("pipelined job reported %d stages, want 1 — no barriers exist", got)
	}
}

func TestChainLabels(t *testing.T) {
	e := testEnv(t, nil)
	ds := FromSlice(e, []string{"a b"}, 1)
	words := MapPartition(ds, fields)
	lens := Map(words, func(w string) int { return len(w) })
	if got := lens.ChainLabel(); got != "DataSource->MapPartition->Map" {
		t.Errorf("chain label = %q", got)
	}
}

func TestPlanMatchesPaperWordCount(t *testing.T) {
	e := testEnv(t, nil)
	ds := FromSlice(e, []string{"a a b"}, 2)
	words := MapPartition(ds, fields)
	pairs := Map(words, func(w string) core.Pair[string, int64] { return core.KV(w, int64(1)) })
	counts := Reduce(GroupBy(pairs, func(p core.Pair[string, int64]) string { return p.Key }), sumValues[string])
	plan := PlanOf("WordCount", SinkOf(counts, "DataSink"))
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	ops := plan.Operators()
	// The paper's Figure 3 chains: DataSource->FlatMap->GroupCombine,
	// GroupReduce, DataSink — the FlatMap here is a MapPartition.
	want := []string{"DataSource->MapPartition->Map->GroupCombine", "GroupReduce", "DataSink"}
	if fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Errorf("plan operators = %v, want %v", ops, want)
	}
}

func TestGrepFilterCount(t *testing.T) {
	e := testEnv(t, nil)
	lines := make([]string, 500)
	for i := range lines {
		if i%5 == 0 {
			lines[i] = fmt.Sprintf("pattern %d", i)
		} else {
			lines[i] = fmt.Sprintf("other %d", i)
		}
	}
	ds := FromSlice(e, lines, 4)
	matched := MapPartition(ds, filterPart(func(l string) bool { return strings.HasPrefix(l, "pattern") }))
	n, err := Count(matched)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("grep count = %d, want 100", n)
	}
	if e.Metrics().ShuffleBytesWritten.Load() != 0 {
		t.Error("filter→count must not exchange data")
	}
}

func TestReadTextFile(t *testing.T) {
	e := testEnv(t, nil)
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "line %d with enough padding to span multiple 4KB blocks\n", i)
	}
	e.FS().WriteFile("text", []byte(sb.String()))
	ds, err := ReadTextFile(e, "text")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Parallelism() < 2 {
		t.Fatalf("expected one partition per block, got %d", ds.Parallelism())
	}
	n, err := Count(ds)
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Errorf("count = %d, want 300", n)
	}
}

func TestPartitionCustomAndSortPartitionTotalOrder(t *testing.T) {
	e := testEnv(t, nil)
	rng := rand.New(rand.NewSource(11))
	recs := make([]string, 400)
	sample := make([]string, 0, 80)
	for i := range recs {
		recs[i] = fmt.Sprintf("%06d", rng.Intn(1000000))
		if i%5 == 0 {
			sample = append(sample, recs[i])
		}
	}
	ds := FromSlice(e, recs, 4)
	part := core.NewRangePartitioner(4, sample, func(a, b string) bool { return a < b })
	ranged := PartitionCustom(ds, part, func(s string) string { return s })
	sorted := SortPartitionNormalized(ranged, func(a, b string) bool { return a < b }, nil)
	parts := make([][]string, sorted.Parallelism())
	err := runJob(sorted, "test", func(p int, batch []string) error {
		parts[p] = append(parts[p], batch...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for p, keys := range parts {
		if !sort.StringsAreSorted(keys) {
			t.Errorf("partition %d not sorted", p)
		}
		all = append(all, keys...)
	}
	if len(all) != 400 {
		t.Fatalf("lost records: %d of 400", len(all))
	}
	if !sort.StringsAreSorted(all) {
		t.Error("partitionCustom+sortPartition must give a total order")
	}
}

func TestJoin(t *testing.T) {
	e := testEnv(t, nil)
	left := FromSlice(e, []core.Pair[string, int64]{
		core.KV("x", int64(1)), core.KV("x", int64(2)), core.KV("y", int64(3)),
	}, 2)
	right := FromSlice(e, []core.Pair[string, string]{
		core.KV("x", "A"), core.KV("z", "C"),
	}, 2)
	joined, err := Collect(Join(left, right,
		func(p core.Pair[string, int64]) string { return p.Key },
		func(p core.Pair[string, string]) string { return p.Key },
		4))
	if err != nil {
		t.Fatal(err)
	}
	if len(joined) != 2 {
		t.Fatalf("join produced %d records, want 2: %v", len(joined), joined)
	}
	for _, j := range joined {
		if j.Key != "x" || j.Value.Right.Value != "A" {
			t.Errorf("unexpected join record %+v", j)
		}
	}
}

func TestDistinct(t *testing.T) {
	e := testEnv(t, nil)
	ds := FromSlice(e, []string{"a", "b", "a", "c", "b"}, 3)
	d, err := Collect(Distinct(ds, func(s string) string { return s }))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(d)
	if strings.Join(d, "") != "abc" {
		t.Errorf("distinct = %v", d)
	}
}

func TestBulkIterationKeepsSingleSchedulingRound(t *testing.T) {
	e := testEnv(t, nil)
	// Iteratively double values 5 times: 1→32.
	ds := FromSlice(e, []int64{1, 1, 1, 1}, 2)
	result := IterateBulk(ds, 5, func(cur *DataSet[int64]) *DataSet[int64] {
		return Map(cur, func(v int64) int64 { return v * 2 })
	})
	got, err := Collect(result)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("lost records across iterations: %v", got)
	}
	for _, v := range got {
		if v != 32 {
			t.Errorf("iterated value = %d, want 32", v)
		}
	}
	if rounds := e.Metrics().SchedulingRounds.Load(); rounds != 1 {
		t.Errorf("bulk iteration used %d scheduling rounds, want 1 — operators are scheduled once", rounds)
	}
}

func TestBulkIterationWithGroupingStep(t *testing.T) {
	e := testEnv(t, nil)
	// K-Means-like: two 1-D centers refined over points, via broadcast.
	points := FromSlice(e, []float64{1, 2, 3, 41, 42, 43}, 3)
	centers := FromSlice(e, []core.Pair[int64, float64]{
		core.KV(int64(0), 0.0), core.KV(int64(1), 50.0),
	}, 1)
	final := IterateBulk(centers, 10, func(cs *DataSet[core.Pair[int64, float64]]) *DataSet[core.Pair[int64, float64]] {
		assigned := MapWithBroadcast(points, cs,
			func(p float64, cents []core.Pair[int64, float64]) core.Pair[int64, core.Pair[float64, int64]] {
				best, bestD := int64(0), -1.0
				for _, c := range cents {
					d := (p - c.Value) * (p - c.Value)
					if bestD < 0 || d < bestD {
						best, bestD = c.Key, d
					}
				}
				return core.KV(best, core.KV(p, int64(1)))
			})
		sums := Reduce(GroupBy(assigned, func(p core.Pair[int64, core.Pair[float64, int64]]) int64 { return p.Key }).WithParallelism(2),
			func(a, b core.Pair[int64, core.Pair[float64, int64]]) core.Pair[int64, core.Pair[float64, int64]] {
				return core.KV(a.Key, core.KV(a.Value.Key+b.Value.Key, a.Value.Value+b.Value.Value))
			})
		return Map(sums, func(s core.Pair[int64, core.Pair[float64, int64]]) core.Pair[int64, float64] {
			return core.KV(s.Key, s.Value.Key/float64(s.Value.Value))
		})
	})
	got, err := Collect(final)
	if err != nil {
		t.Fatal(err)
	}
	m := map[int64]float64{}
	for _, c := range got {
		m[c.Key] = c.Value
	}
	if len(m) != 2 || m[0] != 2 || m[1] != 42 {
		t.Errorf("k-means centers = %v, want {0:2, 1:42}", m)
	}
}

func TestDeltaIterationConvergesAndShrinks(t *testing.T) {
	e := testEnv(t, nil)
	// Connected-components-like: propagate min label along a chain
	// 0-1-2-3-4-5; delta iterations stop when nothing changes.
	n := int64(6)
	var initial []core.Pair[int64, int64]
	for i := int64(0); i < n; i++ {
		initial = append(initial, core.KV(i, i))
	}
	edges := map[int64][]int64{}
	for i := int64(0); i+1 < n; i++ {
		edges[i] = append(edges[i], i+1)
		edges[i+1] = append(edges[i+1], i)
	}
	sol := FromSlice(e, initial, 2)
	ws := FromSlice(e, initial, 2)
	final := IterateDelta(sol, ws, 20,
		func(cur *DataSet[core.Pair[int64, int64]], lookup func(int64) (int64, bool)) (*DataSet[core.Pair[int64, int64]], *DataSet[core.Pair[int64, int64]]) {
			// Scatter: each workset vertex offers its label to neighbors.
			offers := MapPartition(cur, func(ps []core.Pair[int64, int64]) []core.Pair[int64, int64] {
				var out []core.Pair[int64, int64]
				for _, p := range ps {
					for _, nb := range edges[p.Key] {
						out = append(out, core.KV(nb, p.Value))
					}
				}
				return out
			})
			// Gather: keep the min offer per vertex, emit only improvements.
			best := Reduce(GroupBy(offers, func(p core.Pair[int64, int64]) int64 { return p.Key }).WithParallelism(2),
				func(a, b core.Pair[int64, int64]) core.Pair[int64, int64] {
					if b.Value < a.Value {
						return b
					}
					return a
				})
			improved := MapPartition(best, filterPart(func(p core.Pair[int64, int64]) bool {
				curLabel, ok := lookup(p.Key)
				return ok && p.Value < curLabel
			}))
			return improved, improved
		})
	got, err := Collect(final)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != int(n) {
		t.Fatalf("solution set size = %d, want %d", len(got), n)
	}
	for _, p := range got {
		if p.Value != 0 {
			t.Errorf("component[%d] = %d, want 0 (chain is connected)", p.Key, p.Value)
		}
	}
}

func TestDeltaIterationSolutionSetOOM(t *testing.T) {
	// A managed pool of 2 segments cannot hold a solution set needing
	// several: the job must die like Flink's large-graph runs (Table VII).
	e := testEnv(t, func(conf *core.Config) {
		conf.SetBytes(core.FlinkTaskManagerMemory, core.ByteSize(2*memory.SegmentSize))
		conf.Set(core.FlinkMemoryFraction, "1.0")
	})
	var initial []core.Pair[int64, int64]
	for i := int64(0); i < 5*keysPerSegment; i++ {
		initial = append(initial, core.KV(i, i))
	}
	sol := FromSlice(e, initial, 1)
	ws := FromSlice(e, initial[:1], 1)
	final := IterateDelta(sol, ws, 1,
		func(cur *DataSet[core.Pair[int64, int64]], lookup func(int64) (int64, bool)) (*DataSet[core.Pair[int64, int64]], *DataSet[core.Pair[int64, int64]]) {
			empty := FromSlice(e, []core.Pair[int64, int64]{}, 1)
			return empty, empty
		})
	_, err := Collect(final)
	if err == nil {
		t.Fatal("oversized solution set must fail the job")
	}
	if !errors.Is(err, memory.ErrSolutionSetTooLarge) {
		t.Errorf("error should wrap ErrSolutionSetTooLarge, got %v", err)
	}
}

func TestInsufficientSlotsFailsSubmission(t *testing.T) {
	e := testEnv(t, func(conf *core.Config) {
		conf.SetInt(core.FlinkTaskSlots, 1)
	})
	// Source parallelism 4 + reduce parallelism 4 on 4 nodes = 2 tasks per
	// node > 1 slot.
	ds := FromSlice(e, []int64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	pairs := Map(ds, func(v int64) core.Pair[int64, int64] { return core.KV(v%4, v) })
	red := Reduce(GroupBy(pairs, func(p core.Pair[int64, int64]) int64 { return p.Key }).WithParallelism(4),
		func(a, b core.Pair[int64, int64]) core.Pair[int64, int64] { return core.KV(a.Key, a.Value+b.Value) })
	_, err := Collect(red)
	var slots *ErrInsufficientSlots
	if !errors.As(err, &slots) {
		t.Fatalf("want ErrInsufficientSlots, got %v", err)
	}
}

func TestInsufficientNetworkBuffersFailsSubmission(t *testing.T) {
	e := testEnv(t, func(conf *core.Config) {
		conf.SetInt(core.FlinkNetworkBuffers, 8)
	})
	ds := FromSlice(e, []int64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	pairs := Map(ds, func(v int64) core.Pair[int64, int64] { return core.KV(v%4, v) })
	red := Reduce(GroupBy(pairs, func(p core.Pair[int64, int64]) int64 { return p.Key }).WithParallelism(4),
		func(a, b core.Pair[int64, int64]) core.Pair[int64, int64] { return core.KV(a.Key, a.Value+b.Value) })
	_, err := Collect(red)
	var nb *netsim.ErrInsufficientBuffers
	if !errors.As(err, &nb) {
		t.Fatalf("want ErrInsufficientBuffers (the paper raised flink.nw.buffers to avoid this), got %v", err)
	}
}

// reduceUnderOneSegment sums recs by key, two producers into two consumers,
// with one segment of managed memory per node: under the sort strategy a
// producer's combine table gets at most one grant past its first 1 024
// entries and drains downstream at every refusal after it.
func reduceUnderOneSegment(t *testing.T, strategy string, recs []core.Pair[int64, int64]) ([]core.Pair[int64, int64], *Env) {
	t.Helper()
	e := testEnv(t, func(conf *core.Config) {
		conf.SetBytes(core.FlinkTaskManagerMemory, core.ByteSize(memory.SegmentSize))
		conf.Set(core.FlinkMemoryFraction, "1.0")
		conf.Set(FlinkCombineStrategy, strategy)
	})
	red := Reduce(GroupBy(FromSlice(e, recs, 2), func(p core.Pair[int64, int64]) int64 { return p.Key }).WithParallelism(2),
		func(a, b core.Pair[int64, int64]) core.Pair[int64, int64] { return core.KV(a.Key, a.Value+b.Value) })
	got, err := Collect(red)
	if err != nil {
		t.Fatal(err)
	}
	return got, e
}

// refusedGrants is how many managed-memory requests came up short, over all
// nodes.
func refusedGrants(e *Env) int64 {
	var n int64
	for node := 0; node < e.rt.Spec().Nodes; node++ {
		n += e.Managed(node).SpillSignals()
	}
	return n
}

// distinctKeys is n records of n keys: the combiner's worst case.
func distinctKeys(n int) []core.Pair[int64, int64] {
	recs := make([]core.Pair[int64, int64], n)
	for i := range recs {
		recs[i] = core.KV(int64(i), int64(1))
	}
	return recs
}

// TestSortCombinerSpillsUnderMemoryPressure: a spill is a combine table that
// drained because a grant was refused, and SpillBytes is what the drained
// entries encode to. Each producer's 5 × 1 024 distinct keys end on a refused
// grant, so every record leaves its table in a counted drain and none at
// Close; the reduce side spills nothing and counts nothing.
func TestSortCombinerSpillsUnderMemoryPressure(t *testing.T) {
	recs := distinctKeys(10 * keysPerSegment)
	got, e := reduceUnderOneSegment(t, "sort", recs)
	if len(got) != len(recs) {
		t.Fatalf("records lost across combiner drains: %d of %d", len(got), len(recs))
	}
	m := e.Metrics()
	refused := refusedGrants(e)
	if refused == 0 {
		t.Fatal("ten segments of keys never had a managed-memory grant refused")
	}
	if got := m.SpillCount.Load(); got != refused {
		t.Errorf("SpillCount = %d for %d refused grants, want one drain per refusal", got, refused)
	}
	encoded := int64(len(serde.EncodeAll(serde.Of[core.Pair[int64, int64]](serde.TypeInfo), nil, recs)))
	if got := m.SpillBytes.Load(); got != encoded {
		t.Errorf("SpillBytes = %d, want the %d bytes the drained records encode to", got, encoded)
	}
	if in, out := m.CombineInputRecords.Load(), m.CombineOutputRecs.Load(); in != int64(len(recs)) || out != in {
		t.Errorf("combine counters = %d in, %d out, want %d both ways for distinct keys", in, out, len(recs))
	}
	for node := 0; node < e.rt.Spec().Nodes; node++ {
		if free, total := e.Managed(node).Free(), e.Managed(node).TotalSegments(); free != total {
			t.Errorf("node %d: %d of %d segments free after the job", node, free, total)
		}
	}
}

// TestHashCombineStrategyAblation: the hash strategy's table never asks the
// pool, so the same job under the same budget drains once, at Close, and
// spills nothing.
func TestHashCombineStrategyAblation(t *testing.T) {
	recs := distinctKeys(8 * keysPerSegment)
	for _, c := range []struct {
		strategy string
		spills   bool
	}{{"sort", true}, {"hash", false}} {
		got, e := reduceUnderOneSegment(t, c.strategy, recs)
		if len(got) != len(recs) {
			t.Fatalf("%s: %d of %d records", c.strategy, len(got), len(recs))
		}
		spills, bytes, refused := e.Metrics().SpillCount.Load(), e.Metrics().SpillBytes.Load(), refusedGrants(e)
		if spills != refused || (refused > 0) != c.spills || (bytes > 0) != c.spills {
			t.Errorf("%s: %d spills of %d bytes for %d refused grants, want spills = %v, one per refusal",
				c.strategy, spills, bytes, refused, c.spills)
		}
	}
}

// TestReduceFoldsKeysDrainedMidStream: a key that left a producer's table in
// a pressure drain and then arrived again reaches the consumer more than
// once; the reduce-side fold still yields one record per key, with the whole
// sum.
func TestReduceFoldsKeysDrainedMidStream(t *testing.T) {
	const keys, rounds = 3 * keysPerSegment, 4
	recs := make([]core.Pair[int64, int64], 0, keys*rounds)
	for r := 0; r < rounds; r++ {
		for k := 0; k < keys; k++ {
			recs = append(recs, core.KV(int64(k), int64(1)))
		}
	}
	got, e := reduceUnderOneSegment(t, "sort", recs)
	if spills, out := e.Metrics().SpillCount.Load(), e.Metrics().CombineOutputRecs.Load(); spills == 0 || out <= keys {
		t.Fatalf("%d spills, %d combined records for %d keys: no table drained mid-stream", spills, out, keys)
	}
	if len(got) != keys {
		t.Fatalf("%d records for %d keys", len(got), keys)
	}
	for _, p := range got {
		if p.Value != rounds {
			t.Fatalf("key %d sums to %d, want %d", p.Key, p.Value, rounds)
		}
	}
}

func TestBackpressureSmallBuffers(t *testing.T) {
	// A tiny buffer pool forces flushes and channel blocking; the job must
	// still complete correctly (backpressure, not deadlock).
	e := testEnv(t, func(conf *core.Config) {
		conf.SetBytes(core.BufferSize, 64) // 64-byte buffers → many flushes
	})
	recs := make([]core.Pair[int64, int64], 5000)
	for i := range recs {
		recs[i] = core.KV(int64(i%37), int64(1))
	}
	ds := FromSlice(e, recs, 4)
	red := Reduce(GroupBy(ds, func(p core.Pair[int64, int64]) int64 { return p.Key }).WithParallelism(4), sumValues[int64])
	got, err := Collect(red)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range got {
		total += p.Value
	}
	if total != 5000 {
		t.Errorf("sum of counts = %d, want 5000", total)
	}
}

// TestReadTextFileReadsInSubtasks pins where a split is read: building
// DataSource → MapPartition touches no block (no record counted, a handful of
// allocations however many lines and blocks the file has); the source
// subtasks of the first job read the splits they pull.
func TestReadTextFileReadsInSubtasks(t *testing.T) {
	e := testEnv(t, nil)
	text := []byte(strings.Repeat("a line of some forty bytes, give or take\n", 1<<20/41))
	lines := int64(len(text) / 41)
	e.FS().WriteFile("big", text)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ds, err := ReadTextFile(e, "big")
	if err != nil {
		t.Fatal(err)
	}
	kept := MapPartition(ds, filterPart(func(l string) bool { return len(l) > 0 }))
	runtime.ReadMemStats(&after)
	if n, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n > 32 || b > 16<<10 {
		t.Errorf("building DataSource→MapPartition allocated %d times, %d bytes; want O(1)", n, b)
	}
	if got := e.Metrics().RecordsRead.Load(); got != 0 {
		t.Errorf("RecordsRead = %d before any job, want 0", got)
	}
	if n, err := Count(kept); err != nil || n != lines {
		t.Fatalf("Count = %d, %v; want %d", n, err, lines)
	}
	if got := e.Metrics().RecordsRead.Load(); got != lines {
		t.Errorf("RecordsRead = %d after Count, want %d", got, lines)
	}
}

// badRoute sends every key outside its two partitions: the exchange's writer
// rejects the first record it is given.
type badRoute struct{}

func (badRoute) NumPartitions() int  { return 2 }
func (badRoute) Partition(int64) int { return 9 }

// Operators that hold records until end-of-input push them from close or
// finish. When the exchange behind them rejects that push, the task still
// has to deliver end-of-input, or the exchange never closes its channels and
// the job hangs instead of reporting the error.
func TestFailedFinalPushStillClosesTheExchange(t *testing.T) {
	id := func(v int64) int64 { return v }
	in := make([]int64, 1000)
	for i := range in {
		in[i] = int64(i)
	}
	for name, build := range map[string]func(e *Env) *DataSet[int64]{
		"SortPartition": func(e *Env) *DataSet[int64] {
			return SortPartitionNormalized(FromSlice(e, in, 2), func(a, b int64) bool { return a < b }, nil)
		},
		"GroupCombine": func(e *Env) *DataSet[int64] {
			// The Reduce consumer's finish pushes into the failing exchange;
			// the combiner ahead of it flushes from close.
			return Reduce(GroupBy(FromSlice(e, in, 2), id), func(a, _ int64) int64 { return a })
		},
	} {
		e := testEnv(t, nil)
		done := make(chan error, 1)
		go func() {
			_, err := Count(PartitionCustom(build(e), core.Partitioner[int64](badRoute{}), id))
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "routed to partition 9") {
				t.Errorf("%s: err = %v, want the exchange writer's routing error", name, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: the job did not end after its final push failed", name)
		}
	}
}
