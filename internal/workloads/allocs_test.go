package workloads

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/engine/mapreduce"
	"repro/internal/memory"
)

// TestWordCountAllocatesLessThanOncePerWord guards the aggregation path's
// allocation count end to end, measured as the repo benchmark measures it
// (the MemStats.Mallocs delta around the action call). A word that reaches
// a map-side combiner must cost no allocation of its own: it folds into its
// key's entry in place. The engines that buffered every (word, 1) pair and
// regrouped it through per-key slices, or boxed every key to hash it, ran
// at 2.2–2.7 allocations per word. What is left is per distinct key
// (mapreduce's per-run combine groups, formatted output; a decoded block's
// strings share one copy of it), which is why the input is 2 MiB: the
// generator's vocabulary is fixed, and at 1 MiB those per-key costs alone
// put mapreduce at 0.53 per word. Nor may a line cost one: the tokenizer
// appends its words into the FlatMap kernel's scratch (FlatMapAppend with
// appendFields), where a slice per line — strings.Fields — is 0.1 per word
// on this ten-word-a-line text. Nor may an output record: SaveAsText writes
// a pair of strings or integers without boxing it into fmt.Append, which
// cost 0.027 per word here. Measured: 0.0014 / 0.0012 / 0.0019 per word on
// spark / flink / mapreduce, the same under -race; 0.028 / 0.028 / 0.029
// (0.048 / 0.048 / 0.050 under -race) while fmt boxed every output record,
// 0.128 / 0.128 / 0.129 with a slice per line, and 0.178 / 0.178 / 0.434
// while every decoded string was a copy of its own. The bound, 0.005, fails
// on every engine when either the fmt boxing or the slice per line comes
// back.
func TestWordCountAllocatesLessThanOncePerWord(t *testing.T) {
	text := datagen.Text(11, 2<<20, 10)
	words := len(bytes.Fields(text))
	for _, engine := range dataflow.Names() {
		s := paritySessionConf(t, engine, func(c *core.Config) {
			c.SetInt(core.SparkDefaultParallelism, 2).
				SetInt(core.FlinkDefaultParallelism, 2).
				SetInt(mapreduce.MRReduceTasks, 2)
		}, dataflow.WithFS(dfs.New(2, 1024*core.KB, 1)))
		s.FS().WriteFile("wiki", text)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := WordCount(s, "wiki", "wc-out")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		perWord := float64(after.Mallocs-before.Mallocs) / float64(words)
		t.Logf("%s: %.4f allocations per input word (%d words)", engine, perWord, words)
		if perWord > 0.005 {
			t.Errorf("%s: WordCount allocates %.4f times per input word, want at most 0.005", engine, perWord)
		}
	}
}

// TestGrepAllocatesPerBlockNotPerLine guards the scan path's allocation
// count the same way: one Grep job (source → filter → count, no shuffle
// data to speak of) may allocate per task — the split reader's one batch
// buffer, a filter kernel instance with its selection vector and compaction
// scratch, a task's bookkeeping — but nothing per line, nothing sized by the
// block (the lines are views of the stored file: no arena, no whole-split
// slice), and nothing that grows with the file on the driver. Measured: 16
// per block on spark and 52 on mapreduce (whose map tasks each open a
// shuffle writer and materialize a segment), plus a fixed 40 / 145; flink's
// source subtasks, kernels and buffers are per subtask, so it allocates 75
// times whatever the block count — 167 and 549, 75 and 75, 560 and 1810 for
// 8 and 32 blocks (166 and 543, 76 and 75, 569 and 1839 when re-read with
// the sink's part-file commit and string-view decode, which Grep uses
// neither of); the file has 36 657 lines. The limits sit about a quarter
// above that, so gathering a split's lines anywhere on the scan path (ten or
// so allocations a block, as the slice grows) fails every engine, and a
// single allocation per block coming back to the source fails flink.
func TestGrepAllocatesPerBlockNotPerLine(t *testing.T) {
	text := datagen.Text(12, 2<<20, 10)
	lines := bytes.Count(text, []byte("\n"))
	limits := map[string]struct{ fixed, perBlock uint64 }{
		"spark": {50, 20}, "flink": {95, 0}, "mapreduce": {180, 65}}
	for _, engine := range dataflow.Names() {
		for _, blocks := range []int{8, 32} {
			s := paritySessionConf(t, engine, func(c *core.Config) {
				c.SetInt(core.SparkDefaultParallelism, 2).
					SetInt(core.FlinkDefaultParallelism, 2).
					SetInt(mapreduce.MRReduceTasks, 2)
			}, dataflow.WithFS(dfs.New(2, core.ByteSize(len(text)/blocks+1), 1)))
			s.FS().WriteFile("wiki", text)
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n, err := Grep(s, "wiki", "the")
			runtime.ReadMemStats(&after)
			if err != nil || n == 0 {
				t.Fatalf("%s: Grep = %d, %v", engine, n, err)
			}
			allocs := after.Mallocs - before.Mallocs
			t.Logf("%s: %d allocations for %d blocks, %d lines, %d matches", engine, allocs, blocks, lines, n)
			if limit := limits[engine].fixed + limits[engine].perBlock*uint64(blocks); allocs > limit {
				t.Errorf("%s: Grep over %d blocks allocates %d times, want at most %d", engine, blocks, allocs, limit)
			}
		}
	}
}

// TestTeraSortCopiesNoRecord guards the sort-and-move path the same way.
// Nothing on it may cost an allocation per record on any engine: the map
// function splits each record into key and value strings that are views of
// the stored input (dfs.RecordString), and the shuffle writer's block, the
// merge, mapreduce's identity reducer, the sink's encode and commit allocate
// per block or per task. A reduce task decodes all its fetched blocks into
// one array. Spark decodes its kept map outputs in place: a local block is a
// view of the shuffle service's storage, a remote one costs the one
// allocation of the fetch's copy, and the decoded key and value are views of
// those. On mapreduce the reduce side copies each fetched block once,
// because the segment's buffer goes back to the pool. Flink's consumer
// tasks pay nothing per packet: each decodes into one reused batch, from an
// arena of chunks that double up to a mebibyte. The count is taken on 20 000
// records in 512 KiB blocks, where per-task and per-block costs weigh more
// than on the benchmark's input (0.001–0.005 there). Measured: 0.019 /
// 0.012–0.014 / 0.022–0.025 on spark / flink / mapreduce (0.023 /
// 0.015–0.017 / 0.032–0.034 while the buffers below grew by append and the
// run sorter regrew its keys; flink 0.020 while it copied every packet). The map
// function's two string copies read 2.02 here; a single allocation per
// record anywhere on the path fails the bound, and so does one per 32
// records on spark and mapreduce.
//
// The bytes allocated per record are bounded per engine, on 80 000 records
// in the benchmark's 4 MiB blocks: a map task then holds ≈ 42 000 records and
// a flink sort partition ≈ 40 000, so a buffer that collects a whole
// partition regrows as the benchmark sees it. The bound leaves out what the
// buffer pool allocated. Every run starts from an empty pool, so what the
// pool holds afterwards is the blocks the job allocated and gave back, and
// how many that is depends on how many were in flight at once: it moved
// flink's whole bytes per record over 464–584 between runs of one tree, more
// than the growth rule's effect. Without the pool the bytes per record are
// the same on every run, under the race detector too: 604 / 374–376 / 518 on
// spark / flink / mapreduce. While the buffers that collect a partition grew
// by append, ≈ 1.25× a step, the run sorter regrew its keys from nothing and
// mapreduce's reduce side decoded every fetched segment into a slice grown
// from nothing, they read 834 / 492 / 756; flink's and mapreduce's bounds lie
// midway. Spark's read 728 while its shuffle service kept the writers'
// pooled buffers, each a power of two up to twice its block, and its reduce
// side copied every block before decoding it; its bound lies midway between
// that and 604.
//
// The bounds hold under the race detector too: block buffers come from a
// pool the detector cannot empty, and flink's derived codec encodes and
// decodes the records in place through its pointer form.
func TestTeraSortCopiesNoRecord(t *testing.T) {
	bytesBound := map[string]float64{"spark": 666, "flink": 435, "mapreduce": 635}
	for _, engine := range dataflow.Names() {
		const bound = 0.045
		perRec, _, _ := teraSortAllocs(t, engine, 20000, 512*core.KB)
		if perRec > bound {
			t.Errorf("%s: TeraSort allocates %.3f times per record, want at most %.3f", engine, perRec, bound)
		}
		_, bytesPerRec, _ := teraSortAllocs(t, engine, 80000, 4*core.MB)
		if limit := bytesBound[engine]; bytesPerRec > limit {
			t.Errorf("%s: TeraSort allocates %.0f bytes per record, want at most %.0f", engine, bytesPerRec, limit)
		}
	}
}

// TestTeraSortReturnsEveryPooledBuffer: a TeraSort job gives back every
// buffer it took from the pool, on every engine — the pool holds the
// engines' working sets, not their outputs. Spark's shuffle service keeps
// its map outputs for the session, in storage allocated for them
// (shuffle.KeepAll); while it kept the writers' pooled buffers instead,
// a job on 80 000 records in 4 MiB blocks left four of them out of the pool
// for good (Gets − Puts = 4), and the bench's terasort sixteen.
func TestTeraSortReturnsEveryPooledBuffer(t *testing.T) {
	for _, engine := range dataflow.Names() {
		_, _, pool := teraSortAllocs(t, engine, 80000, 4*core.MB)
		if gets, puts, _ := pool.Stats(); gets != puts {
			t.Errorf("%s: TeraSort took %d buffers from the pool and gave back %d", engine, gets, puts)
		}
	}
}

// teraSortAllocs runs TeraSort over records records in blocks of the given
// size on a fresh session of engine, against an empty buffer pool, and
// returns the allocations per record, the bytes per record allocated
// outside the pool, and the pool.
func teraSortAllocs(t *testing.T, engine string, records int, block core.ByteSize) (perRec, bytesPerRec float64, pool *memory.BufPool) {
	t.Helper()
	data := datagen.TeraGen(13, records)
	part := TeraPartitioner(data, 2)
	s := paritySessionConf(t, engine, func(c *core.Config) {
		c.SetInt(core.SparkDefaultParallelism, 2).
			SetInt(core.FlinkDefaultParallelism, 2).
			SetInt(mapreduce.MRReduceTasks, 2)
	}, dataflow.WithFS(dfs.New(2, block, 1)))
	s.FS().WriteFile("tera", data)
	defer func(pool *memory.BufPool) { memory.DefaultPool = pool }(memory.DefaultPool)
	pool = &memory.BufPool{}
	memory.DefaultPool = pool
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := TeraSort(s, "tera", "tera-out", part)
	runtime.ReadMemStats(&after)
	pooled := pool.Retained()
	if err != nil {
		t.Fatalf("%s: %v", engine, err)
	}
	if err := VerifyTeraSorted(s.FS(), "tera-out", records); err != nil {
		t.Fatalf("%s: %v", engine, err)
	}
	perRec = float64(after.Mallocs-before.Mallocs) / float64(records)
	bytesPerRec = float64(int64(after.TotalAlloc-before.TotalAlloc)-pooled) / float64(records)
	t.Logf("%s, %d records in %d KiB blocks: %.3f allocations, %.0f bytes per record (%.0f with the pool's)",
		engine, records, block/core.KB, perRec, bytesPerRec, bytesPerRec+float64(pooled)/float64(records))
	return perRec, bytesPerRec, pool
}

// TestSparkPageRankAllocatesPerPartitionNotPerEdge guards spark's Pregel
// the same way, per edge and superstep as the repo benchmark counts
// PageRank's records. A superstep's cogroups group whole partitions into
// a few backing arrays, its messages are appended to one slice per
// partition and folded map-side, and the edges and vertex states stay
// cached where they are: nothing in a superstep allocates per edge or per
// vertex. The out-edge lists Pregel groups once per call are full slices
// of one backing array per partition, under a tenth of what is counted; the
// rest is per-task and per-partition bookkeeping (the cogroups' key
// numbering, the combine tables, the map writers). Measured: 0.0194
// (0.0195 under -race) on the benchmark's PageRank size; grouping the out-
// edges into a growing slice per source vertex read 0.072, and the plan
// that shuffled and re-grouped the edges through per-key slices every
// superstep, and tagged every vertex and message for a union, read 3.99.
// The bound fails that per-vertex grouping, let alone one allocation per
// edge.
func TestSparkPageRankAllocatesPerPartitionNotPerEdge(t *testing.T) {
	const supersteps = 5
	const bound = 0.03
	edges := datagen.RMAT(16, datagen.GraphSpec{Name: "allocs", Vertices: 5000, Edges: 40000})
	s := paritySessionConf(t, "spark", func(c *core.Config) {
		c.SetInt(core.SparkDefaultParallelism, 2)
	})
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, n, err := PageRank(s, edges, supersteps)
	runtime.ReadMemStats(&after)
	if err != nil || n != supersteps {
		t.Fatalf("PageRank = %d supersteps, %v; want %d", n, err, supersteps)
	}
	perRec := float64(after.Mallocs-before.Mallocs) / float64(len(edges)*supersteps)
	t.Logf("spark: %.4f allocations per edge and superstep", perRec)
	if perRec > bound {
		t.Errorf("spark: PageRank allocates %.3f times per edge and superstep, want at most %.2f", perRec, bound)
	}
}

// TestFlinkPageRankAllocatesPerBatchNotPerEdge guards flink's Pregel the
// same way. The edges are partitioned and built into one hash table per
// partition on the first superstep, and later supersteps probe those in
// place; the join emits its matches, and the scatter and the apply their
// results, into one slice per batch; the vertex set is derived once, its
// endpoints a slice per batch. Nothing in a superstep allocates per edge or
// per vertex. Measured: 0.016 on the benchmark's PageRank size; the plan
// that re-shuffled the edges every superstep, gathered each join partition
// into one growing slice and returned a one-element slice per message read
// 2.07. The race detector reads the same: no record passes through a
// sync.Pool cell the detector could drop, and no block buffer through a pool
// it could empty. The bound fails one more allocation per vertex and
// superstep (+0.125), let alone one per edge.
func TestFlinkPageRankAllocatesPerBatchNotPerEdge(t *testing.T) {
	const supersteps = 5
	const bound = 0.1
	edges := datagen.RMAT(16, datagen.GraphSpec{Name: "allocs", Vertices: 5000, Edges: 40000})
	s := paritySessionConf(t, "flink", func(c *core.Config) {
		c.SetInt(core.FlinkDefaultParallelism, 2)
	})
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, n, err := PageRank(s, edges, supersteps)
	runtime.ReadMemStats(&after)
	if err != nil || n != supersteps {
		t.Fatalf("PageRank = %d supersteps, %v; want %d", n, err, supersteps)
	}
	perRec := float64(after.Mallocs-before.Mallocs) / float64(len(edges)*supersteps)
	t.Logf("flink: %.4f allocations per edge and superstep", perRec)
	if perRec > bound {
		t.Errorf("flink: PageRank allocates %.3f times per edge and superstep, want at most %.2f", perRec, bound)
	}
}

// TestMapReducePageRankAllocatesPerBatchNotPerEdge guards mapreduce's
// Pregel the same way. A superstep's map tasks decode the staged edges and
// states a block (exec.batch.size records) at a time and hand the map
// function one batch of joined edges per block; the apply tasks decode,
// fold and re-encode the states a block at a time too. Nothing the lowering
// does allocates per edge or per vertex: what is counted is per block and
// per task. Each reader decodes every block, straight from the file's
// bytes, into one batch it reuses, so reading a block costs no allocation. Measured: 0.021 on the benchmark's PageRank size
// (0.026 while every block was decoded into a fresh slice); the plan that
// decoded the edges and the states into driver maps every superstep and ran
// vprog in a driver loop read 0.265. The bound holds under the race
// detector too: 0.049 there (0.054 with a fresh slice per block), where the
// staged files' record-at-a-time encode still passes a derived codec's
// pooled cell, which the detector drops now and then. It fails one more
// allocation per vertex and superstep (+0.125), and the old plan.
func TestMapReducePageRankAllocatesPerBatchNotPerEdge(t *testing.T) {
	const supersteps = 5
	const bound = 0.25
	edges := datagen.RMAT(16, datagen.GraphSpec{Name: "allocs", Vertices: 5000, Edges: 40000})
	s := paritySessionConf(t, "mapreduce", func(c *core.Config) {
		c.SetInt(mapreduce.MRReduceTasks, 2)
	})
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, n, err := PageRank(s, edges, supersteps)
	runtime.ReadMemStats(&after)
	if err != nil || n != supersteps {
		t.Fatalf("PageRank = %d supersteps, %v; want %d", n, err, supersteps)
	}
	perRec := float64(after.Mallocs-before.Mallocs) / float64(len(edges)*supersteps)
	t.Logf("mapreduce: %.4f allocations per edge and superstep", perRec)
	if perRec > bound {
		t.Errorf("mapreduce: PageRank allocates %.3f times per edge and superstep, want at most %.2f", perRec, bound)
	}
}

// TestWordCountMapOutputIsNotMaterialised guards the same path by bytes
// (the MemStats.TotalAlloc delta around the action call, per input word).
// The fused FlatMap→MapToPair chain hands its (word, 1) pairs to the map-side
// combine a batch at a time, so a word costs the 16-byte string header
// strings.Fields builds for it, its share of the block's line arena and of
// per-batch scratch and per-key entries, and — on mapreduce — the sort
// buffer's spills. An engine that first collects the chain's output pays 24
// bytes per pair several times over while the slice doubles.
//
// mapreduce's spill buffers are pooled and a collection empties the pool, so
// bytes allocated would move with where the collector happens to run. The
// measured job therefore runs with the collector off, after one unmeasured
// job that fills the pool and one collection (which parks the pool's buffers
// where the next Get still finds them). Read this way over fifteen runs, at
// GOMAXPROCS 1, 2 and 8: spark 51.2–54.2, flink 49.1–50.0, mapreduce
// 169.4–176.6 bytes per word (what is left of the spread is a pooled
// megabyte found or missed by a concurrent task); an engine that gathers the
// map output first reads ≈ 135 bytes per word more under the same protocol
// (191–192, 186–187 and 446–455 against 52–57, 49–50 and 321–329 when that
// was last measured). The bounds sit 1.5× above what is measured, 1.2× on
// mapreduce so that gathering fails there too.
func TestWordCountMapOutputIsNotMaterialised(t *testing.T) {
	text := datagen.Text(11, 2<<20, 10)
	words := len(bytes.Fields(text))
	bound := map[string]float64{"spark": 81, "flink": 75, "mapreduce": 210}
	for _, engine := range dataflow.Names() {
		s := paritySessionConf(t, engine, func(c *core.Config) {
			c.SetInt(core.SparkDefaultParallelism, 2).
				SetInt(core.FlinkDefaultParallelism, 2).
				SetInt(mapreduce.MRReduceTasks, 2)
		}, dataflow.WithFS(dfs.New(2, 1024*core.KB, 1)))
		s.FS().WriteFile("wiki", text)
		if err := WordCount(s, "wiki", "wc-warm"); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := WordCount(s, "wiki", "wc-out")
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		perWord := float64(after.TotalAlloc-before.TotalAlloc) / float64(words)
		t.Logf("%s: %.1f bytes allocated per input word (%d words)", engine, perWord, words)
		if perWord > bound[engine] {
			t.Errorf("%s: WordCount allocates %.0f bytes per input word, want at most %.0f: is the map output collected before it is combined?",
				engine, perWord, bound[engine])
		}
	}
}

// TestJobsLeaveTheirInputUntouched is the other half of the sources'
// zero-copy contract: the lines and records a job reads are views of the
// stored file, so the engines — and the workloads' own functions — may keep
// them but never write through them. The input's SHA-256 is the same after
// WordCount, Grep and TeraSort on every engine as before; under -race (make
// test) a write racing the other tasks' reads would be reported as well.
func TestJobsLeaveTheirInputUntouched(t *testing.T) {
	text := datagen.Text(14, 256<<10, 10)
	tera := datagen.TeraGen(15, 4000)
	part := TeraPartitioner(tera, 2)
	textSum, teraSum := sha256.Sum256(text), sha256.Sum256(tera)
	for _, engine := range dataflow.Names() {
		s := paritySession(t, engine)
		s.FS().WriteFile("wiki", text)
		s.FS().WriteFile("tera", tera)
		if err := WordCount(s, "wiki", "wc-out"); err != nil {
			t.Fatalf("%s: WordCount: %v", engine, err)
		}
		if _, err := Grep(s, "wiki", "the"); err != nil {
			t.Fatalf("%s: Grep: %v", engine, err)
		}
		if err := TeraSort(s, "tera", "tera-out", part); err != nil {
			t.Fatalf("%s: TeraSort: %v", engine, err)
		}
		for _, in := range []struct {
			name string
			want [sha256.Size]byte
		}{{"wiki", textSum}, {"tera", teraSum}} {
			f, err := s.FS().Open(in.name)
			if err != nil {
				t.Fatal(err)
			}
			if sha256.Sum256(f.Contents()) != in.want {
				t.Errorf("%s: the jobs changed the bytes of their input %q", engine, in.name)
			}
		}
	}
}
