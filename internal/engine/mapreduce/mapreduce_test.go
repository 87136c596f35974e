package mapreduce

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
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

func fixture(t testing.TB, conf *core.Config) *Cluster {
	t.Helper()
	spec := cluster.Spec{Nodes: 2, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 500, NetMiBps: 500}
	rt, err := cluster.NewRuntime(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	return NewCluster(conf, rt, dfs.New(2, 4*core.KB, 1))
}

// textInput reads a DFS file as lines, one split per block, the way the
// dataflow layer's text source feeds a job: SplitsInput over the file's
// LineBatches, each map task streaming its split through one buffer.
func textInput(t testing.TB, c *Cluster, name string) Input[string] {
	t.Helper()
	f, err := c.FS().Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return SplitsInput(c, f.NumBlocks(), func(m int, yield func([]string) error) error {
		return f.LineBatches(m, make([]string, c.Conf().ExecBatchSize), yield)
	}, f.PreferredNode, f.Size())
}

// sliceInput splits data over numSplits map tasks by the engine's rule, the
// way the dataflow layer's slice source does: SplitsInput over SplitSlice.
func sliceInput[I any](c *Cluster, data []I, numSplits int) Input[I] {
	splits := SplitSlice(c, data, numSplits)
	return SplitsInput(c, len(splits), func(m int, yield func([]I) error) error { return yield(splits[m]) }, nil, 0)
}

func wordCountJob() Job[string, string, int64] {
	return Job[string, string, int64]{
		Name: "WordCount",
		Map: func(line string, emit func(string, int64)) {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
		},
		Combine: func(_ string, vs []int64) int64 {
			var s int64
			for _, v := range vs {
				s += v
			}
			return s
		},
		Reduce: func(k string, vs []int64, emit func(string, int64)) {
			var s int64
			for _, v := range vs {
				s += v
			}
			emit(k, s)
		},
	}
}

func TestWordCountCorrect(t *testing.T) {
	c := fixture(t, nil)
	text := strings.Repeat("the quick brown fox jumps over the lazy dog\nthe end\n", 200)
	c.FS().WriteFile("in", []byte(text))
	out, err := Run(c, wordCountJob(), textInput(t, c, "in"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for _, w := range strings.Fields(text) {
		want[w]++
	}
	got := map[string]int64{}
	for _, kv := range out.Pairs() {
		if _, dup := got[kv.Key]; dup {
			t.Errorf("key %q appears in more than one reduce group", kv.Key)
		}
		got[kv.Key] = kv.Value
	}
	if len(got) != len(want) {
		t.Fatalf("got %d distinct words, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("count[%q] = %d, want %d", k, got[k], v)
		}
	}
	if c.Metrics().CombineRatio() <= 1 {
		t.Errorf("combiner did not reduce records: ratio %.2f", c.Metrics().CombineRatio())
	}
}

func TestSpillsWithTinySortBuffer(t *testing.T) {
	conf := core.NewConfig().SetInt(MRSortRecords, 16)
	c := fixture(t, conf)
	c.FS().WriteFile("in", []byte(strings.Repeat("a b c d e f g h\n", 100)))
	if _, err := Run(c, wordCountJob(), textInput(t, c, "in")); err != nil {
		t.Fatal(err)
	}
	if c.Metrics().SpillCount.Load() < 2 {
		t.Errorf("spills = %d, want several with a 16-record sort buffer", c.Metrics().SpillCount.Load())
	}
	if c.Metrics().SpillBytes.Load() <= 0 {
		t.Error("spill bytes not charged")
	}
}

func TestBarrierBetweenPhases(t *testing.T) {
	c := fixture(t, nil)
	c.FS().WriteFile("in", []byte("x y z\n"))
	if _, err := Run(c, wordCountJob(), textInput(t, c, "in")); err != nil {
		t.Fatal(err)
	}
	// One job = exactly two scheduling waves: the map wave drains fully
	// before the reduce wave launches (the materialization barrier).
	if waves := c.Runtime().Waves(); waves != 2 {
		t.Errorf("runtime waves = %d, want 2 (map, reduce)", waves)
	}
	if stages := c.Metrics().Stages.Load(); stages != 2 {
		t.Errorf("stages = %d, want 2", stages)
	}
	spans := c.Timeline().Spans()
	if len(spans) != 2 {
		t.Fatalf("timeline spans = %d, want 2", len(spans))
	}
	// The reduce span must start no earlier than the map span ends.
	if spans[1].Start < spans[0].End {
		t.Errorf("reduce span started at %v before map span ended at %v", spans[1].Start, spans[0].End)
	}
}

func TestIdentityReduceWithRangePartitionerSorts(t *testing.T) {
	c := fixture(t, nil)
	var recs []string
	for i := 0; i < 500; i++ {
		recs = append(recs, fmt.Sprintf("key%03d", (i*7919)%500))
	}
	part := core.NewRangePartitioner(4, []string{"key125", "key250", "key375"},
		func(a, b string) bool { return a < b })
	job := Job[string, string, bool]{
		Name:    "MiniTeraSort",
		Reduces: 4,
		Map:     func(r string, emit func(string, bool)) { emit(r, true) },
		Partition: func(k string, _ int) int {
			return part.Partition(k)
		},
	}
	out, err := Run(c, job, sliceInput(c, recs, 6))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(recs))
	for _, kv := range out.Pairs() {
		keys = append(keys, kv.Key)
	}
	if len(keys) != len(recs) {
		t.Fatalf("identity reduce kept %d records, want %d", len(keys), len(recs))
	}
	if !sort.StringsAreSorted(keys) {
		t.Error("range partition + sort-merge should yield a global sort")
	}
}

func TestNoCachingAcrossChainedJobs(t *testing.T) {
	c := fixture(t, nil)
	c.FS().WriteFile("in", []byte(strings.Repeat("a b c\n", 500)))
	var reads []int64
	err := Iterate(c, 3, func(round int) error {
		if _, err := Run(c, wordCountJob(), textInput(t, c, "in")); err != nil {
			return err
		}
		reads = append(reads, c.Metrics().DiskBytesRead.Load())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every chained job re-reads the input from the DFS: cumulative read
	// bytes must keep growing by at least the input size each round.
	inSize := int64(len("a b c\n") * 500)
	for i := 1; i < len(reads); i++ {
		if reads[i]-reads[i-1] < inSize {
			t.Errorf("round %d re-read only %d bytes, want ≥ %d (no caching)", i, reads[i]-reads[i-1], inSize)
		}
	}
	if c.Metrics().CacheHits.Load() != 0 {
		t.Error("a MapReduce engine has no cache to hit")
	}
	if got := len(c.Timeline().Spans()); got < 3+6 {
		t.Errorf("timeline has %d spans, want per-round chain spans plus phases", got)
	}
}

// TestMissingInputAndIdentityJob runs a job without a reducer. A missing
// input fails where a file is opened, in the dataflow text source:
// TestFailedSinkWritesNoFile (internal/dataflow) reads one on every engine.
func TestMissingInputAndIdentityJob(t *testing.T) {
	c := fixture(t, nil)
	identity := Job[string, string, int64]{
		Name: "Identity",
		Map:  func(r string, emit func(string, int64)) { emit(r, 1) },
	}
	c.FS().WriteFile("in", []byte("a\nb\n"))
	out, err := Run(c, identity, textInput(t, c, "in"))
	if err != nil {
		t.Fatalf("identity job should pass: %v", err)
	}
	if len(out.Pairs()) != 2 {
		t.Errorf("identity reduce kept %d records, want 2", len(out.Pairs()))
	}
}

func TestIterateStopsOnError(t *testing.T) {
	c := fixture(t, nil)
	boom := errors.New("round failed")
	ran := 0
	err := Iterate(c, 5, func(round int) error {
		ran++
		if round == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("Iterate error = %v, want %v", err, boom)
	}
	if ran != 2 {
		t.Errorf("Iterate ran %d rounds after failure, want 2", ran)
	}
}

func TestOperatorsChain(t *testing.T) {
	j := wordCountJob()
	ops := strings.Join(j.Operators(), "→")
	for _, frag := range []string{"Map", "Combine", "SpillSort", "Materialize", "Shuffle", "MergeSort", "Reduce"} {
		if !strings.Contains(ops, frag) {
			t.Errorf("operator chain missing %s: %s", frag, ops)
		}
	}
	ident := Job[string, string, bool]{Name: "ident"}
	if ops := strings.Join(ident.Operators(), "→"); !strings.Contains(ops, "IdentityReduce") {
		t.Errorf("identity chain missing IdentityReduce: %s", ops)
	}
}

// fmtPartition is defaultPartition as it was first written — FNV-32a fed by
// fmt — kept as the reference: a record must never change partition.
func fmtPartition[K cmp.Ordered](k K, reduces int) int {
	h := fnv.New32a()
	fmt.Fprintf(h, "%v", k)
	return int(h.Sum32() % uint32(reduces))
}

func checkPartition[K cmp.Ordered](t *testing.T, keys ...K) {
	t.Helper()
	for _, k := range keys {
		for _, reduces := range []int{1, 2, 7, 64, 1 << 20} {
			if got, want := defaultPartition(k, reduces), fmtPartition(k, reduces); got != want {
				t.Errorf("defaultPartition(%T %v, %d) = %d, fmt form gives %d", k, k, reduces, got, want)
			}
		}
	}
}

func TestDefaultPartitionMatchesFmtForm(t *testing.T) {
	type word string
	type id int
	checkPartition(t, "", "the", "vadalor", "naïve ☃", strings.Repeat("k", 300))
	checkPartition(t, word("named"))
	checkPartition(t, 0, -1, 42, math.MaxInt, math.MinInt)
	checkPartition(t, id(-7))
	checkPartition[int8](t, 0, -128, 127)
	checkPartition[int16](t, 0, math.MinInt16, math.MaxInt16)
	checkPartition[int32](t, 0, math.MinInt32, math.MaxInt32)
	checkPartition[int64](t, 0, math.MinInt64, math.MaxInt64)
	checkPartition[uint](t, 0, 9, math.MaxUint)
	checkPartition[uint8](t, 0, 255)
	checkPartition[uint16](t, 0, math.MaxUint16)
	checkPartition[uint32](t, 0, math.MaxUint32)
	checkPartition[uint64](t, 0, math.MaxUint64)
	checkPartition[uintptr](t, 0, math.MaxUint64)
	checkPartition[float32](t, 0, -1.5, 1e20, float32(math.Inf(1)))
	checkPartition(t, 0.0, 3.25, -1e-7, 1e21, math.NaN(), math.Inf(-1))

	s, i := "vadalor", int64(42)
	for name, fn := range map[string]func(){
		"string": func() { defaultPartition(s, 2) },
		"int64":  func() { defaultPartition(i, 2) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("defaultPartition(%s) allocates %v times per record", name, n)
		}
	}
}

// TestScanBatchesReachTheMapFunction feeds a job through SplitsInput's push
// form: each split arrives in several batches (an empty one among them) from
// one reused buffer, so the map task must have mapped a batch before it asks
// for the next. The result and RecordsRead equal a whole-split input's, and
// an error from the map side ends the scan instead of running it to its end.
func TestScanBatchesReachTheMapFunction(t *testing.T) {
	c := fixture(t, nil)
	const perSplit, width = 1000, 64
	var yields atomic.Int64
	scan := func(m int, yield func([]int64) error) error {
		buf := make([]int64, 0, width)
		for v := int64(0); v < perSplit; v++ {
			buf = append(buf, v+int64(m)*perSplit)
			if len(buf) == width || v == perSplit-1 {
				yields.Add(1)
				if err := yield(buf); err != nil {
					return err
				}
				buf = buf[:0]
				if err := yield(buf); err != nil { // an empty batch is legal
					return err
				}
			}
		}
		return nil
	}
	job := Job[int64, int64, int64]{
		Name:    "Residues",
		Reduces: 2,
		Map:     func(v int64, emit func(int64, int64)) { emit(v%10, v) },
		Reduce: func(k int64, vs []int64, emit func(int64, int64)) {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			emit(k, sum)
		},
	}
	out, err := Run(c, job, SplitsInput(c, 3, scan, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	sums := map[int64]int64{}
	for _, p := range out.Pairs() {
		sums[p.Key] = p.Value
	}
	for k := int64(0); k < 10; k++ {
		var want int64
		for v := k; v < 3*perSplit; v += 10 {
			want += v
		}
		if sums[k] != want {
			t.Errorf("sum of residue %d = %d, want %d (a batch read after its buffer was reused?)", k, sums[k], want)
		}
	}
	if got := c.Metrics().RecordsRead.Load(); got != 3*perSplit {
		t.Errorf("RecordsRead = %d, want %d", got, 3*perSplit)
	}

	// The hash strategy routes a record when it is written (the sort
	// strategy when it cuts a run), so an unroutable key fails the first
	// WriteBatch: exec.batch.size records in, with the scan's fifth batch.
	yields.Store(0)
	c = fixture(t, core.NewConfig().Set(core.ShuffleStrategy, "hash"))
	job.Partition = func(k int64, reduces int) int { return reduces }
	if _, err := Run(c, job, SplitsInput(c, 3, scan, nil, 0)); err == nil {
		t.Fatal("a job whose map output cannot be routed should fail")
	}
	if got := yields.Load(); got > 3*5 {
		t.Errorf("the scans yielded %d batches after the first write failed; want them to stop", got)
	}
}

// leftovers lists the intermediate files jobs left on the cluster's DFS.
func leftovers(c *Cluster) []string {
	var out []string
	for _, name := range c.FS().List() {
		if strings.HasPrefix(name, "mr/") {
			out = append(out, name)
		}
	}
	return out
}

// TestFailedJobLeavesNoIntermediateFiles: when one map task of a two-split
// job fails, the job still removes the segments the other map task wrote
// (and the failed attempt its spilled runs), as a successful job does.
func TestFailedJobLeavesNoIntermediateFiles(t *testing.T) {
	c := fixture(t, core.NewConfig().SetInt(MRSortRecords, 16))
	boom := errors.New("split unreadable")
	scan := func(m int, yield func([]int64) error) error {
		vs := make([]int64, 100)
		for i := range vs {
			vs[i] = int64(m*100 + i)
		}
		if err := yield(vs); err != nil {
			return err
		}
		if m == 1 {
			return boom
		}
		return nil
	}
	job := Job[int64, int64, int64]{
		Name: "Failing",
		Map:  func(v int64, emit func(int64, int64)) { emit(v%7, v) },
	}
	if _, err := Run(c, job, SplitsInput(c, 2, scan, nil, 0)); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the scan's error", err)
	}
	if c.Metrics().SpillCount.Load() == 0 {
		t.Error("no spill; the test wants spilled runs to clean up too")
	}
	if left := leftovers(c); len(left) > 0 {
		t.Errorf("the failed job left %v on the DFS", left)
	}
}

// TestUserPanicsBecomeJobErrors: a panic in the map, combine or reduce
// function fails the job with an error naming the job and the task — no
// crash, no hang, and no intermediate file left behind.
func TestUserPanicsBecomeJobErrors(t *testing.T) {
	for _, where := range []string{"Map", "Combine", "Reduce"} {
		c := fixture(t, nil)
		job := wordCountJob()
		job.Name = "Panicking"
		switch where {
		case "Map":
			job.Map = func(string, func(string, int64)) { panic("map blew up") }
		case "Combine":
			job.Combine = func(string, []int64) int64 { panic("combine blew up") }
		case "Reduce":
			job.Reduce = func(string, []int64, func(string, int64)) { panic("reduce blew up") }
		}
		c.FS().WriteFile("in", []byte(strings.Repeat("a b a c\n", 300)))
		_, err := Run(c, job, textInput(t, c, "in"))
		if err == nil {
			t.Fatalf("%s: a panicking job succeeded", where)
		}
		msg := err.Error()
		if !strings.Contains(msg, "Panicking") || !strings.Contains(msg, "task ") || !strings.Contains(msg, "blew up") {
			t.Errorf("%s: error %q does not name the job, the task and the panic", where, msg)
		}
		if left := leftovers(c); len(left) > 0 {
			t.Errorf("%s: the failed job left %v on the DFS", where, left)
		}
	}
}

// TestCombinerAllocatesPerSpillNotPerKey runs a combining job over many
// distinct keys, each arriving twice far apart, through a sort buffer that
// spills every 4096 records. Combine and Reduce are lent one values slice per
// task, as Hadoop reuses its values iterator: what the job allocates is per
// spill, per block and per task, not per key group — 0.11 per key, most of
// it the block metadata of spill files cut into the fixture's 4 KB DFS
// blocks. Handing every group a fresh slice cost 5.1 per key: one per group
// in every spilled run, once more when the runs merge at Close, once in the
// reducer. The bound fails a single allocation per key group anywhere.
func TestCombinerAllocatesPerSpillNotPerKey(t *testing.T) {
	const keys = 20000
	c := fixture(t, core.NewConfig().SetInt(MRSortRecords, 4096).SetInt(MRReduceTasks, 2))
	recs := make([]int64, 2*keys)
	for i := range recs {
		recs[i] = int64(i % keys)
	}
	sum := func(vs []int64) int64 {
		var s int64
		for _, v := range vs {
			s += v
		}
		return s
	}
	job := Job[int64, int64, int64]{
		Name:    "DistinctCount",
		Map:     func(k int64, emit func(int64, int64)) { emit(k, 1) },
		Combine: func(_ int64, vs []int64) int64 { return sum(vs) },
		Reduce:  func(k int64, vs []int64, emit func(int64, int64)) { emit(k, sum(vs)) },
	}
	in := sliceInput(c, recs, 2)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := Run(c, job, in)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	pairs := out.Pairs()
	if len(pairs) != keys {
		t.Fatalf("%d keys out, want %d", len(pairs), keys)
	}
	for _, kv := range pairs {
		if kv.Value != 2 {
			t.Fatalf("key %d counted %d times, want 2", kv.Key, kv.Value)
		}
	}
	spills := c.Metrics().SpillCount.Load()
	if spills < 8 {
		t.Fatalf("%d spills, want at least 8 from a 4096-record sort buffer", spills)
	}
	perKey := float64(after.Mallocs-before.Mallocs) / keys
	t.Logf("%d spills, %.3f allocations per key", spills, perKey)
	if perKey > 0.5 {
		t.Errorf("the job allocates %.3f times per key, want at most 0.5: something allocates per key group", perKey)
	}
}

// TestJobReturnsEveryBufferToThePool: a job gives back every pooled buffer
// its shuffle drew — the spilled runs when their files are removed, the map
// output segments when the job's cleanup deletes them — under both shuffle
// strategies, and when a map task fails after other tasks have written their
// segments.
func TestJobReturnsEveryBufferToThePool(t *testing.T) {
	recs := make([]int64, 20000)
	for i := range recs {
		recs[i] = int64(i * 7919 % 5000)
	}
	recs[len(recs)-1] = -1 // the last split's last record
	for _, strategy := range []string{"sort", "hash"} {
		for _, fail := range []bool{false, true} {
			name := fmt.Sprintf("%s, failing %v", strategy, fail)
			c := fixture(t, core.NewConfig().SetInt(MRSortRecords, 1000).SetInt(MRReduceTasks, 3).
				Set(core.ShuffleStrategy, strategy))
			job := Job[int64, int64, int64]{
				Name: "Identity",
				Map: func(k int64, emit func(int64, int64)) {
					if fail && k < 0 {
						panic("the last split's last record")
					}
					emit(k, k)
				},
			}
			gets0, puts0, _ := memory.DefaultPool.Stats()
			_, err := Run(c, job, sliceInput(c, recs, 4))
			gets, puts, _ := memory.DefaultPool.Stats()
			if (err != nil) != fail {
				t.Fatalf("%s: Run = %v", name, err)
			}
			if !fail && c.Metrics().SpillCount.Load() == 0 && strategy == "sort" {
				t.Fatalf("%s: no spills", name)
			}
			if gets-gets0 != puts-puts0 {
				t.Errorf("%s: %d buffers drawn from the pool, %d returned", name, gets-gets0, puts-puts0)
			}
		}
	}
}
