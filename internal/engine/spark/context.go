// Package spark is a real, executing mini-engine modeled on Apache Spark
// 1.5, the version the paper benchmarks. It implements the architecture the
// paper holds responsible for Spark's behaviour:
//
//   - lazy RDDs with lineage and partial recomputation on loss;
//   - explicit persistence control (memory / memory-and-disk / disk-only)
//     with an LRU block manager charged against the executor heap's storage
//     fraction;
//   - partition control (Section II-C): an RDD records the partitioner its
//     keys were shuffled by, Filter and MapValues keep it, and a keyed
//     operator (CombineByKey and its ReduceByKey / GroupByKey, PartitionBy,
//     CoGroup and Join, Union) over inputs that already have the
//     partitioner it needs takes a narrow dependency instead of a shuffle —
//     what keeps GraphX's joins of cached vertices and edges narrow;
//   - staged execution: the DAG scheduler cuts stages at shuffle
//     dependencies and inserts a full barrier between stages;
//   - a tungsten-sort-style shuffle with map-side combine that spills when
//     the heap's shuffle fraction is exhausted;
//   - iterations as regular for-loops (loop unrolling): each iteration
//     schedules a fresh wave of tasks;
//   - pluggable Java/Kryo serialization on every shuffle and disk boundary.
//
// Jobs process real data on the cluster.Runtime's per-node worker pools;
// the engine's counters and timelines feed the paper-scale simulator's
// calibration.
package spark

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/serde"
	"repro/internal/shuffle"
)

// Context is the entry point, playing SparkContext's role: it owns the
// configuration, the executor heaps, the shuffle service, the block
// manager and the DAG scheduler state.
type Context struct {
	conf  *core.Config
	rt    *cluster.Runtime
	fs    *dfs.FS
	style serde.Style
	heaps []*memory.Heap

	metrics  *metrics.JobMetrics
	timeline *metrics.Timeline

	nextRDD     atomic.Int64
	nextShuffle atomic.Int64

	shuffles *shuffleService
	blocks   *blockManager

	// parallelism and shuffleSet are resolved from the configuration once,
	// in NewContext: every RDD and every shuffle of the context runs under
	// them, so the write side, the read side and lineage retries of one
	// shuffle always agree.
	parallelism int
	shuffleSet  shuffle.Settings
}

// NewContext builds a context over a runtime and DFS. The executor heap per
// node is sized by spark.executor.memory with the configured storage and
// shuffle fractions; the serializer comes from spark.serializer. The
// default parallelism is spark.default.parallelism, or two tasks per core
// (Spark's documented recommendation) when unset. The shuffle settings
// follow spark.shuffle.manager ("hash" = hash-bucketed, anything else = the
// paper's tungsten-sort, i.e. the sort strategy); shuffle.strategy
// overrides.
func NewContext(conf *core.Config, rt *cluster.Runtime, fs *dfs.FS) *Context {
	if conf == nil {
		conf = core.NewConfig()
	}
	heapSize := int64(conf.Bytes(core.SparkExecutorMemory, 22*core.GB))
	storageFrac := conf.Float(core.SparkStorageFraction, 0.6)
	shuffleFrac := conf.Float(core.SparkShuffleFraction, 0.2)
	spec := rt.Spec()
	ctx := &Context{
		conf:     conf,
		rt:       rt,
		fs:       fs,
		style:    serde.ParseStyle(conf.String(core.SparkSerializer, "java")),
		metrics:  &metrics.JobMetrics{},
		timeline: metrics.NewTimeline(),
	}
	for i := 0; i < spec.Nodes; i++ {
		ctx.heaps = append(ctx.heaps, memory.NewHeap(heapSize, storageFrac, shuffleFrac))
	}
	ctx.parallelism = conf.Int(core.SparkDefaultParallelism, 0)
	if ctx.parallelism <= 0 {
		ctx.parallelism = spec.TotalCores() * 2
	}
	def := shuffle.Sort
	if conf.String(core.SparkShuffleManager, "tungsten-sort") == "hash" {
		def = shuffle.Hash
	}
	ctx.shuffleSet = shuffle.FromConf(conf, def)
	ctx.shuffles = newShuffleService(ctx)
	ctx.blocks = newBlockManager(ctx)
	return ctx
}

// Conf returns the configuration.
func (c *Context) Conf() *core.Config { return c.conf }

// FS returns the distributed filesystem.
func (c *Context) FS() *dfs.FS { return c.fs }

// Runtime returns the execution substrate.
func (c *Context) Runtime() *cluster.Runtime { return c.rt }

// DefaultParallelism returns the effective spark.default.parallelism.
func (c *Context) DefaultParallelism() int { return c.parallelism }

// Style returns the configured serializer.
func (c *Context) Style() serde.Style { return c.style }

// Metrics returns the job counters.
func (c *Context) Metrics() *metrics.JobMetrics { return c.metrics }

// Timeline returns the operator timeline.
func (c *Context) Timeline() *metrics.Timeline { return c.timeline }

// heapFor returns the executor heap of a node.
func (c *Context) heapFor(node int) *memory.Heap { return c.heaps[node] }

// Parallelize distributes a slice over numParts partitions as Spark's
// parallelize does (0 uses the default parallelism).
func Parallelize[T any](c *Context, data []T, numParts int) *RDD[T] {
	if numParts <= 0 {
		numParts = c.parallelism
	}
	if numParts > len(data) && len(data) > 0 {
		numParts = len(data)
	}
	if numParts == 0 {
		numParts = 1
	}
	parts := make([][]T, numParts)
	for i := range parts {
		lo := i * len(data) / numParts
		hi := (i + 1) * len(data) / numParts
		parts[i] = data[lo:hi:hi]
	}
	return newRDD(c, "Parallelize", core.OpSource, numParts, nil,
		func(p int, tc *taskContext) ([]T, error) { return parts[p], nil })
}

// TextFile reads a DFS file as an RDD of lines, one partition per HDFS
// block, with the block's first replica as the preferred location
// (newAPIHadoopFile in the paper's Tera Sort description). A partition is
// read by the task that computes it, every time it is computed: nothing is
// read when the RDD is built, and only persistence avoids the re-read. It is
// read as a stream (fileRDD): a consumer that folds the partition never
// holds its lines as a slice.
func TextFile(c *Context, name string) (*RDD[string], error) {
	f, err := c.fs.Open(name)
	if err != nil {
		return nil, fmt.Errorf("spark: textFile: %w", err)
	}
	return fileRDD(c, "TextFile", f, f.LineBatches), nil
}

// BinaryRecords reads fixed-width records, one partition per block — the
// input format of Tera Sort — read in the computing task like TextFile.
func BinaryRecords(c *Context, name string, recSize int) (*RDD[[]byte], error) {
	f, err := c.fs.Open(name)
	if err != nil {
		return nil, fmt.Errorf("spark: binaryRecords: %w", err)
	}
	return fileRDD(c, "BinaryRecords", f,
		func(p int, buf [][]byte, yield func([][]byte) error) error {
			return f.FixedRecordBatches(p, recSize, buf, yield)
		}), nil
}

// fileRDD is the file source: one partition per block of f, streamed by the
// computing task through read (a dfs split reader) exec.batch.size records
// at a time from one buffer per task. The batches are that buffer, borrowed
// like any stream's; the records are views of the stored file and may be
// kept.
func fileRDD[T any](c *Context, name string, f *dfs.File,
	read func(block int, buf []T, yield func([]T) error) error) *RDD[T] {
	width := core.ExecBatch(c.conf)
	r := newStreamRDD(c, name, core.OpSource, f.NumBlocks(), nil,
		func(p int, tc *taskContext, sink func(int, []T) error) error {
			return read(p, make([]T, width), func(batch []T) error {
				tc.metrics.RecordsRead.Add(int64(len(batch)))
				return sink(p, batch)
			})
		})
	r.pref = f.PreferredNode
	return r
}
