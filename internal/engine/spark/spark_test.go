package spark

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/memory"
)

// testContext builds a small context: 4 nodes × 2 slots, 64KB blocks.
func testContext(t *testing.T, confEdit func(*core.Config)) *Context {
	t.Helper()
	spec := cluster.Spec{Nodes: 4, CoresPerNode: 2, MemPerNode: core.GB, DiskSeqMiBps: 100, NetMiBps: 100}
	rt, err := cluster.NewRuntime(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	conf := core.NewConfig()
	conf.SetBytes(core.SparkExecutorMemory, 64*core.MB)
	conf.SetInt(core.SparkDefaultParallelism, 8)
	if confEdit != nil {
		confEdit(conf)
	}
	fs := dfs.New(spec.Nodes, 4*core.KB, 2)
	return NewContext(conf, rt, fs)
}

// fields splits a partition's lines into their words: a FlatMap as the
// MapPartitions it lowers to.
func fields(lines []string) []string {
	var words []string
	for _, l := range lines {
		words = append(words, strings.Fields(l)...)
	}
	return words
}

func TestParallelizeCollect(t *testing.T) {
	c := testContext(t, nil)
	data := make([]int64, 100)
	for i := range data {
		data[i] = int64(i)
	}
	r := Parallelize(c, data, 8)
	if r.NumPartitions() != 8 {
		t.Fatalf("partitions = %d, want 8", r.NumPartitions())
	}
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("collected %d records, want 100", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestWordCountPipeline(t *testing.T) {
	c := testContext(t, nil)
	lines := []string{
		"the the the quick quick fox",
		"the the lazy lazy dog dog",
		"the quick dog dog dog brown",
	}
	rdd := Parallelize(c, lines, 3)
	words := MapPartitions(rdd, fields)
	pairs := MapToPair(words, func(w string) core.Pair[string, int64] { return core.KV(w, int64(1)) })
	counts := ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, 4)
	got, err := Collect(counts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"the": 6, "quick": 3, "brown": 1, "fox": 1, "lazy": 2, "dog": 5}
	if len(got) != len(want) {
		t.Fatalf("got %d distinct words, want %d: %v", len(got), len(want), got)
	}
	for _, p := range got {
		if want[p.Key] != p.Value {
			t.Errorf("count[%q] = %d, want %d", p.Key, p.Value, want[p.Key])
		}
	}
	// Map-side combine must reduce records: 10 words → ≤ 3 partitions × 6 keys.
	if ratio := c.Metrics().CombineRatio(); ratio <= 1.0 {
		t.Errorf("combine ratio = %v, want > 1 (map-side combine active)", ratio)
	}
	if c.Metrics().ShuffleBytesWritten.Load() == 0 {
		t.Error("shuffle bytes written not accounted")
	}
}

func TestTextFileRespectsBlocksAndLocality(t *testing.T) {
	c := testContext(t, nil)
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "line number %d with some padding text\n", i)
	}
	c.FS().WriteFile("wiki", []byte(sb.String()))
	r, err := TextFile(c, "wiki")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPartitions() < 2 {
		t.Fatalf("expected multiple block partitions, got %d", r.NumPartitions())
	}
	n, err := Count(r)
	if err != nil {
		t.Fatal(err)
	}
	if n != 400 {
		t.Errorf("line count = %d, want 400", n)
	}
	f, _ := c.FS().Open("wiki")
	if got := r.prefNode(0); got != f.PreferredNode(0) {
		t.Errorf("locality: partition 0 prefers node %d, want %d", got, f.PreferredNode(0))
	}
}

func TestTextFileMissing(t *testing.T) {
	c := testContext(t, nil)
	if _, err := TextFile(c, "missing"); err == nil {
		t.Error("TextFile on missing file should error")
	}
}

func TestGrepFilterCount(t *testing.T) {
	c := testContext(t, nil)
	lines := make([]string, 1000)
	for i := range lines {
		if i%10 == 0 {
			lines[i] = fmt.Sprintf("match pattern %d", i)
		} else {
			lines[i] = fmt.Sprintf("nothing here %d", i)
		}
	}
	r := Parallelize(c, lines, 8)
	matches := Filter(r, func(l string) bool { return strings.Contains(l, "pattern") })
	n, err := Count(matches)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("grep count = %d, want 100", n)
	}
	// filter→count is a single stage: no shuffle.
	if got := c.Metrics().ShuffleBytesWritten.Load(); got != 0 {
		t.Errorf("grep should not shuffle, wrote %d bytes", got)
	}
}

func TestGroupByKeyAndJoin(t *testing.T) {
	c := testContext(t, nil)
	recs := make([]core.Pair[string, int64], 60)
	for i := range recs {
		recs[i] = core.KV(fmt.Sprintf("k%d", (i*7)%11), int64(i))
	}
	// want is every reduce partition in turn, grouped the slow way: keys in
	// first-seen order, values in record order.
	hp := core.NewHashPartitioner[string](3)
	var want []core.Pair[string, []int64]
	for p := 0; p < hp.NumPartitions(); p++ {
		at := make(map[string]int)
		for _, kv := range recs {
			if hp.Partition(kv.Key) != p {
				continue
			}
			if _, ok := at[kv.Key]; !ok {
				at[kv.Key] = len(want)
				want = append(want, core.KV(kv.Key, []int64(nil)))
			}
			want[at[kv.Key]].Value = append(want[at[kv.Key]].Value, kv.Value)
		}
	}
	shuffled, err := Collect(GroupByKey(Parallelize(c, recs, 4), 3))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(shuffled) != fmt.Sprint(want) {
		t.Errorf("GroupByKey over a shuffle = %v\nwant %v", shuffled, want)
	}
	copart := PartitionBy(Parallelize(c, recs, 4), hp).Cache()
	grouped, err := Collect(GroupByKey(copart, 3))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(grouped) != fmt.Sprint(shuffled) {
		t.Errorf("GroupByKey within co-partitioned partitions = %v\nover a shuffle = %v", grouped, shuffled)
	}
	// The groups of a partition share one backing array: growing one group
	// must copy it, never write into the next group's values.
	before := fmt.Sprint(grouped)
	for i, g := range grouped {
		if cap(g.Value) != len(g.Value) {
			t.Errorf("group %q has capacity %d for %d values, want a full slice", g.Key, cap(g.Value), len(g.Value))
		}
		_ = append(grouped[i].Value, -1)
	}
	if after := fmt.Sprint(grouped); after != before {
		t.Errorf("appending to the groups changed them:\n%s\nwas %s", after, before)
	}

	left := Parallelize(c, []core.Pair[string, int64]{
		core.KV("x", int64(1)), core.KV("x", int64(2)), core.KV("y", int64(3)),
	}, 2)
	right := Parallelize(c, []core.Pair[string, string]{
		core.KV("x", "A"), core.KV("z", "C"),
	}, 2)
	groups, err := Collect(CoGroup(left, right, core.NewHashPartitioner[string](4)))
	if err != nil {
		t.Fatal(err)
	}
	// The inner join is every left × right pairing of a key's groups: only
	// key "x" matches, with 2 left values × 1 right value.
	var joined []string
	for _, g := range groups {
		for _, l := range g.Value.Left {
			for _, r := range g.Value.Right {
				joined = append(joined, fmt.Sprintf("%s %d %s", g.Key, l, r))
			}
		}
	}
	sort.Strings(joined)
	if fmt.Sprint(joined) != "[x 1 A x 2 A]" || len(groups) != 3 {
		t.Errorf("cogroup %v joins to %v, want [x 1 A x 2 A] from 3 keys", groups, joined)
	}
}

func TestRepartitionAndSortTotalOrder(t *testing.T) {
	c := testContext(t, nil)
	rng := rand.New(rand.NewSource(3))
	recs := make([]core.Pair[string, string], 500)
	sample := make([]string, 0, 100)
	for i := range recs {
		key := fmt.Sprintf("%05d", rng.Intn(100000))
		recs[i] = core.KV(key, "payload")
		if i%5 == 0 {
			sample = append(sample, key)
		}
	}
	r := Parallelize(c, recs, 8)
	part := core.NewRangePartitioner(4, sample, func(a, b string) bool { return a < b })
	sorted := RepartitionAndSortNormalized(r, part, func(a, b string) bool { return a < b }, nil)
	parts := make([][]string, sorted.NumPartitions())
	if err := ForeachPartition(sorted, func(p int, data []core.Pair[string, string]) error {
		keys := make([]string, len(data))
		for i, kv := range data {
			keys[i] = kv.Key
		}
		parts[p] = keys
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var all []string
	for p, keys := range parts {
		if !sort.StringsAreSorted(keys) {
			t.Errorf("partition %d not locally sorted", p)
		}
		all = append(all, keys...)
	}
	if len(all) != 500 {
		t.Fatalf("lost records: %d of 500", len(all))
	}
	if !sort.StringsAreSorted(all) {
		t.Error("concatenated partitions not globally sorted: range partitioner + local sort must give total order")
	}
}

func TestCollectAsMap(t *testing.T) {
	c := testContext(t, nil)
	r := Parallelize(c, []core.Pair[string, int64]{
		core.KV("a", int64(1)), core.KV("b", int64(2)),
	}, 2)
	m, err := CollectAsMap(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["a"] != 1 || m["b"] != 2 {
		t.Errorf("collectAsMap = %v", m)
	}
}

func TestCollectAsMapOOM(t *testing.T) {
	c := testContext(t, func(conf *core.Config) {
		conf.SetBytes(core.SparkExecutorMemory, 256*core.KB)
	})
	recs := make([]core.Pair[string, string], 4000)
	for i := range recs {
		recs[i] = core.KV(fmt.Sprintf("key-%06d", i), strings.Repeat("v", 100))
	}
	r := Parallelize(c, recs, 4)
	_, err := CollectAsMap(r)
	if err == nil {
		t.Fatal("collectAsMap larger than driver heap must die — the paper's large-graph failure mode")
	}
	var oom *memory.ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Errorf("error should be out-of-memory, got %v", err)
	}
}

func TestCachingAvoidsRecompute(t *testing.T) {
	c := testContext(t, nil)
	var computes atomic.Int64
	base := Parallelize(c, []int64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	expensive := Map(base, func(v int64) int64 {
		computes.Add(1)
		return v * 2
	}).Cache()
	if _, err := Collect(expensive); err != nil {
		t.Fatal(err)
	}
	first := computes.Load()
	if first != 8 {
		t.Fatalf("first pass computed %d records, want 8", first)
	}
	if _, err := Count(expensive); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != first {
		t.Errorf("cached RDD recomputed: %d → %d map calls", first, computes.Load())
	}
	if c.Metrics().CacheHits.Load() == 0 {
		t.Error("cache hits not recorded")
	}
}

func TestCacheEvictionDegradesAndRecomputes(t *testing.T) {
	// Each of the 4 node heaps is 128KB (storage fraction ≈ 77KB); the 8
	// cached partitions are ~51KB each, two per node — the second insert
	// on every node must evict the first. MEMORY_ONLY blocks drop and
	// recompute.
	c := testContext(t, func(conf *core.Config) {
		conf.SetBytes(core.SparkExecutorMemory, 128*core.KB)
	})
	var computes atomic.Int64
	recs := make([]string, 4000)
	for i := range recs {
		recs[i] = strings.Repeat("x", 100)
	}
	base := Parallelize(c, recs, 8)
	big := Map(base, func(s string) string {
		computes.Add(1)
		return s + "y"
	}).Cache()
	if _, err := Count(big); err != nil {
		t.Fatal(err)
	}
	first := computes.Load()
	if _, err := Count(big); err != nil {
		t.Fatal(err)
	}
	if computes.Load() == first {
		t.Log("note: everything fit in cache; eviction not exercised")
	}
	mem, _ := c.blocks.cachedParts(big.id)
	if mem == 8 {
		t.Error("all 8 partitions cached despite a 256KB heap — size accounting is broken")
	}
}

func TestDiskOnlyPersistRoundTrip(t *testing.T) {
	c := testContext(t, nil)
	var computes atomic.Int64
	base := Parallelize(c, []string{"a", "b", "c", "d"}, 2)
	r := Map(base, func(s string) string {
		computes.Add(1)
		return s + "!"
	}).Persist(StorageDiskOnly)
	out1, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 4 {
		t.Errorf("disk-persisted RDD recomputed: %d calls, want 4", computes.Load())
	}
	if fmt.Sprint(out1) != fmt.Sprint(out2) {
		t.Errorf("disk round trip changed data: %v vs %v", out1, out2)
	}
	if c.Metrics().DiskBytesWritten.Load() == 0 || c.Metrics().DiskBytesRead.Load() == 0 {
		t.Error("disk persistence not accounted")
	}
}

func TestNodeFailureRecovery(t *testing.T) {
	c := testContext(t, nil)
	words := Parallelize(c, []string{"a", "b", "a", "c", "a", "b"}, 3)
	pairs := MapToPair(words, func(w string) core.Pair[string, int64] { return core.KV(w, int64(1)) })
	counts := ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, 4).Cache()
	before, err := Collect(counts)
	if err != nil {
		t.Fatal(err)
	}
	c.FailNode(1) // lose node 1's cache blocks and shuffle outputs
	after, err := Collect(counts)
	if err != nil {
		t.Fatalf("job after node failure: %v", err)
	}
	sortPairs := func(ps []core.Pair[string, int64]) {
		sort.Slice(ps, func(i, j int) bool { return ps[i].Key < ps[j].Key })
	}
	sortPairs(before)
	sortPairs(after)
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Errorf("lineage recovery changed results:\nbefore %v\nafter  %v", before, after)
	}
}

func TestTransientTaskRetry(t *testing.T) {
	c := testContext(t, nil)
	var failures atomic.Int64
	r := Parallelize(c, []int64{1, 2, 3, 4}, 2)
	flaky := MapPartitions(r, func(in []int64) []int64 { return in })
	// Inject: the first two attempts fail transiently.
	orig := flaky.compute
	flaky.compute = func(p int, tc *taskContext) ([]int64, error) {
		if failures.Add(1) <= 2 {
			return nil, &TransientError{Err: errors.New("injected")}
		}
		return orig(p, tc)
	}
	if _, err := Collect(flaky); err != nil {
		t.Fatalf("transient failures should be retried: %v", err)
	}
}

// TestStagesCount: the scheduler runs one stage per shuffle plus the
// result stage, the clearly separated stages of the paper's figures.
func TestStagesCount(t *testing.T) {
	c := testContext(t, nil)
	r := Parallelize(c, []string{"a b", "b c"}, 2)
	words := MapPartitions(r, fields)
	pairs := MapToPair(words, func(w string) core.Pair[string, int64] { return core.KV(w, int64(1)) })
	counts := ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, 2)
	stages := func(run func() error) int64 {
		before := c.Metrics().Stages.Load()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return c.Metrics().Stages.Load() - before
	}
	if got := stages(func() error { _, err := Collect(counts); return err }); got != 2 {
		t.Errorf("word count stages = %d, want 2 (map + reduce)", got)
	}
	grep := Filter(r, func(s string) bool { return true })
	if got := stages(func() error { _, err := Collect(grep); return err }); got != 1 {
		t.Errorf("grep stages = %d, want 1", got)
	}
}

func TestPlanOf(t *testing.T) {
	c := testContext(t, nil)
	r := Parallelize(c, []string{"a"}, 1)
	words := MapPartitions(r, fields)
	pairs := MapToPair(words, func(w string) core.Pair[string, int64] { return core.KV(w, int64(1)) })
	counts := ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, 1)
	plan := PlanOf("WordCount", SinkOf(counts, "SaveAsTextFile"))
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	ops := plan.Operators()
	want := []string{"Parallelize", "MapPartitions", "MapToPair", "ReduceByKey", "SaveAsTextFile"}
	if fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Errorf("plan operators = %v, want %v", ops, want)
	}
}

func TestLoopUnrollingSchedulesPerIteration(t *testing.T) {
	// Spark iterations are for-loops: every iteration triggers a fresh
	// scheduling round — the overhead the paper contrasts with Flink's
	// single cyclic dataflow.
	c := testContext(t, nil)
	data := Parallelize(c, []float64{1, 2, 3, 4}, 2).Cache()
	if _, err := Collect(data); err != nil { // materialize cache
		t.Fatal(err)
	}
	base := c.Metrics().SchedulingRounds.Load()
	const iters = 5
	centers := []float64{0, 10}
	for i := 0; i < iters; i++ {
		assigned := MapToPair(data, func(v float64) core.Pair[int, float64] {
			if v < centers[1]/2 {
				return core.KV(0, v)
			}
			return core.KV(1, v)
		})
		sums := ReduceByKey(assigned, func(a, b float64) float64 { return a + b }, 2)
		if _, err := CollectAsMap(sums); err != nil {
			t.Fatal(err)
		}
	}
	rounds := c.Metrics().SchedulingRounds.Load() - base
	if rounds < iters*2 {
		t.Errorf("loop unrolling scheduled %d rounds over %d iterations, want ≥ %d (stage per iteration)",
			rounds, iters, iters*2)
	}
}

func TestBinaryRecords(t *testing.T) {
	c := testContext(t, nil)
	data := make([]byte, 100*20)
	for i := range data {
		data[i] = byte(i % 251)
	}
	c.FS().WriteFile("bin", data)
	r, err := BinaryRecords(c, "bin", 100)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Count(r)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Errorf("binary record count = %d, want 20", n)
	}
}

func TestKryoReducesShuffleBytes(t *testing.T) {
	run := func(serializer string) int64 {
		c := testContext(t, func(conf *core.Config) {
			conf.Set(core.SparkSerializer, serializer)
		})
		words := make([]string, 2000)
		for i := range words {
			words[i] = fmt.Sprintf("w%d", i%100)
		}
		r := Parallelize(c, words, 4)
		pairs := MapToPair(r, func(w string) core.Pair[string, int64] { return core.KV(w, int64(1)) })
		counts := ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, 4)
		if _, err := Collect(counts); err != nil {
			t.Fatal(err)
		}
		return c.Metrics().ShuffleBytesWritten.Load()
	}
	java, kryo := run("java"), run("kryo")
	if kryo >= java {
		t.Errorf("kryo shuffle bytes (%d) should be below java (%d) — Section IV-D", kryo, java)
	}
}

func TestUnpersist(t *testing.T) {
	c := testContext(t, nil)
	r := Parallelize(c, []int64{1, 2, 3, 4}, 2).Cache()
	if _, err := Collect(r); err != nil {
		t.Fatal(err)
	}
	if !r.fullyCached() {
		t.Fatal("expected fully cached after action")
	}
	r.Unpersist()
	if r.fullyCached() {
		t.Error("unpersist left blocks behind")
	}
}

// TestTextFileReadsInTasks pins where a split is read: building
// TextFile → Filter touches no block (no record counted, a handful of
// allocations however many lines and blocks the file has); the tasks of
// the first action read one block each.
func TestTextFileReadsInTasks(t *testing.T) {
	c := testContext(t, nil)
	text := []byte(strings.Repeat("a line of some forty bytes, give or take\n", 1<<20/41))
	lines := int64(len(text) / 41)
	c.FS().WriteFile("big", text)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := TextFile(c, "big")
	if err != nil {
		t.Fatal(err)
	}
	kept := Filter(r, func(l string) bool { return len(l) > 0 })
	runtime.ReadMemStats(&after)
	if n, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n > 32 || b > 16<<10 {
		t.Errorf("building TextFile→Filter over %d blocks allocated %d times, %d bytes; want O(1)", r.NumPartitions(), n, b)
	}
	if got := c.Metrics().RecordsRead.Load(); got != 0 {
		t.Errorf("RecordsRead = %d before any action, want 0", got)
	}
	if n, err := Count(kept); err != nil || n != lines {
		t.Fatalf("Count = %d, %v; want %d", n, err, lines)
	}
	if got := c.Metrics().RecordsRead.Load(); got != lines {
		t.Errorf("RecordsRead = %d after Count, want %d", got, lines)
	}
}
