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
// per block or per task. The reduce side costs one allocation per fetched
// block: serde.DecodeAllN copies a block once and the decoded key and value
// are views of that copy. Measured: 0.024–0.032 on all three engines at this
// size, where per-task and per-block costs weigh more than on the benchmark's
// input (0.003–0.011 there). The map function's two string copies read 2.02
// here; a single allocation per record anywhere on the path fails the bound.
// The bound holds under the race detector too: block buffers come from a
// pool the detector cannot empty, and flink's derived codec encodes and
// decodes the records in place through its pointer form.
func TestTeraSortCopiesNoRecord(t *testing.T) {
	const records = 20000
	data := datagen.TeraGen(13, records)
	part := TeraPartitioner(data, 2)
	for _, engine := range dataflow.Names() {
		s := paritySessionConf(t, engine, func(c *core.Config) {
			c.SetInt(core.SparkDefaultParallelism, 2).
				SetInt(core.FlinkDefaultParallelism, 2).
				SetInt(mapreduce.MRReduceTasks, 2)
		}, dataflow.WithFS(dfs.New(2, 512*core.KB, 1)))
		s.FS().WriteFile("tera", data)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := TeraSort(s, "tera", "tera-out", part)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if err := VerifyTeraSorted(s.FS(), "tera-out", records); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		const bound = 0.05
		perRec := float64(after.Mallocs-before.Mallocs) / records
		t.Logf("%s: %.3f allocations per record", engine, perRec)
		if perRec > bound {
			t.Errorf("%s: TeraSort allocates %.3f times per record, want at most %.2f", engine, perRec, bound)
		}
	}
}

// TestSparkPageRankAllocatesPerPartitionNotPerEdge guards spark's Pregel
// the same way, per edge and superstep as the repo benchmark counts
// PageRank's records. A superstep's cogroups group whole partitions into
// a few backing arrays, its messages are appended to one slice per
// partition and folded map-side, and the edges and vertex states stay
// cached where they are: nothing in a superstep allocates per edge or per
// vertex. What is left is per call, not per superstep: seven in ten are
// the out-edge lists Pregel groups once (a growing slice per source
// vertex), the rest per-task and per-partition bookkeeping. Measured: 0.072
// (0.073 under -race) on the benchmark's PageRank size; the plan that
// shuffled and re-grouped the edges through per-key slices every superstep,
// and tagged every vertex and message for a union, read 3.99. The bound
// fails one more allocation per vertex and superstep (+0.125), let alone
// one per edge.
func TestSparkPageRankAllocatesPerPartitionNotPerEdge(t *testing.T) {
	const supersteps = 5
	const bound = 0.1
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
// does allocates per edge or per vertex: its blocks and waves are under 5 %
// of what is counted. Two thirds are the engine's map-side combiner, one
// value slice per distinct destination per map task and superstep, and a
// fifth the out-degree job PageRank runs first. Measured: 0.195 on the
// benchmark's PageRank size; the plan that decoded the edges and the states
// into driver maps every superstep and ran vprog in a driver loop read
// 0.265. The bound holds under the race detector too: 0.053 there, where
// the staged files' record-at-a-time encode still passes a derived codec's
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
