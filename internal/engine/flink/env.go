// Package flink is a real, executing mini-engine modeled on Apache Flink
// 0.10, the version the paper benchmarks. It implements the architecture
// the paper holds responsible for Flink's behaviour:
//
//   - pipelined execution: the whole dataflow is scheduled once as one set
//     of concurrently running tasks connected by bounded buffers with
//     backpressure — there are no stage barriers;
//   - operator chaining: narrow operators run inside their producer's task
//     (the optimizer's chains appear in plan labels such as
//     "DataSource->FlatMap->GroupCombine");
//   - a GroupCombine ahead of every combinable grouped reduction: records
//     fold on arrival in the producing subtask's combine table (the shuffle
//     core's, shared with spark and mapreduce), which is charged to managed
//     memory and drains downstream when a grant is refused;
//   - receivers that keep what arrives in memory they own: a consumer task
//     decodes every packet into one batch it reuses, and records with
//     strings into an arena of growing chunks, so a received packet costs
//     no allocation;
//   - managed memory segments; operators that can spill do, while the
//     delta iteration's solution set must fit and kills the job otherwise —
//     the paper's Table VII failure;
//   - native iterations: bulk and delta iteration operators whose body is
//     scheduled once and whose state stays resident across supersteps; the
//     static path is cached per iteration run — a join input that does not
//     depend on the feedback is shuffled and built into hash tables on the
//     first superstep, and every later superstep probes them in place;
//   - type-aware (TypeInfo) serialization on every exchange, with no
//     configuration.
//
// Jobs process real data on the cluster.Runtime's worker pools; counters
// and timelines feed the paper-scale simulator's calibration.
package flink

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/serde"
	"repro/internal/shuffle"
)

// Env is the execution environment, playing ExecutionEnvironment's role.
type Env struct {
	conf    core.Config
	rt      *cluster.Runtime
	fs      *dfs.FS
	style   serde.Style
	managed []*memory.Managed
	pool    *netsim.BufferPool

	metrics  *metrics.JobMetrics
	timeline *metrics.Timeline

	slotsPerNode int
	combineSort  bool

	// parallelism and shuffleSet are resolved from the configuration once,
	// in NewEnv: every plan built on the environment runs under them, so
	// producers and consumers of one exchange always agree.
	parallelism int
	shuffleSet  shuffle.Settings

	nextID atomic.Int64
}

// FlinkCombineStrategy is core.FlinkCombineStrategy, the key that picks
// the GroupCombine's table bound ("sort" or "hash").
const FlinkCombineStrategy = core.FlinkCombineStrategy

// NewEnv builds an environment over a runtime and DFS, on its own copy of
// conf. Managed memory per node is taskmanager.memory × memory.fraction;
// serialization is always TypeInfo (Flink needs no serializer config). The
// default parallelism is parallelism.default, or the cluster's task slots
// when 0. The shuffle settings go through the shared shuffle core: flink's
// native idiom is the pipelined hash repartition; shuffle.strategy=sort
// turns keyed exchanges into sort-based pipeline breakers. Buckets flush at
// the configured network buffer size, the pipelining grain. It panics with
// conf.Err() when Set recorded an unknown key or an illegal value:
// dataflow.Open returns that error instead.
func NewEnv(conf *core.Config, rt *cluster.Runtime, fs *dfs.FS) *Env {
	if conf == nil {
		conf = core.NewConfig()
	}
	if err := conf.Err(); err != nil {
		panic(err)
	}
	spec := rt.Spec()
	env := &Env{
		conf:        *conf,
		rt:          rt,
		fs:          fs,
		style:       serde.TypeInfo,
		metrics:     &metrics.JobMetrics{},
		timeline:    metrics.NewTimeline(),
		pool:        netsim.NewBufferPool(conf.FlinkNetworkBuffers, conf.BufferSize),
		combineSort: conf.FlinkCombineStrategy == "sort",
	}
	for i := 0; i < spec.Nodes; i++ {
		env.managed = append(env.managed, memory.NewManaged(int64(conf.FlinkTaskManagerMemory), conf.FlinkMemoryFraction))
	}
	env.slotsPerNode = conf.FlinkTaskSlots
	if env.slotsPerNode == 0 {
		env.slotsPerNode = rt.SlotsPerNode()
	}
	env.parallelism = conf.FlinkDefaultParallelism
	if env.parallelism == 0 {
		env.parallelism = env.slotsPerNode * spec.Nodes
	}
	env.shuffleSet = shuffle.FromConf(conf, shuffle.Hash)
	env.shuffleSet.FlushBytes = int64(conf.BufferSize)
	return env
}

// Conf returns the environment's configuration, fixed when it was built.
func (e *Env) Conf() core.Config { return e.conf }

// FS returns the distributed filesystem.
func (e *Env) FS() *dfs.FS { return e.fs }

// Metrics returns the job counters.
func (e *Env) Metrics() *metrics.JobMetrics { return e.metrics }

// Timeline returns the operator timeline.
func (e *Env) Timeline() *metrics.Timeline { return e.timeline }

// Managed returns node n's managed memory pool (tests inspect it).
func (e *Env) Managed(n int) *memory.Managed { return e.managed[n] }

// keysPerSegment approximates how many keyed records fit in one 32 KiB
// managed segment: the cadence at which the delta iteration's solution set
// charges the pool.
const keysPerSegment = 1024

// nodeOf maps a partition to its executing node.
func (e *Env) nodeOf(part int) int { return e.rt.NodeFor(part) }

// FromSlice distributes a slice over the given parallelism
// (fromCollection). parallelism ≤ 0 uses the environment default.
func FromSlice[T any](e *Env, data []T, parallelism int) *DataSet[T] {
	if parallelism <= 0 {
		parallelism = e.parallelism
	}
	if parallelism > len(data) && len(data) > 0 {
		parallelism = len(data)
	}
	if parallelism == 0 {
		parallelism = 1
	}
	p := parallelism
	return newSource(e, "DataSource", p, nil, func(part int, emit func([]T) error) error {
		lo := part * len(data) / p
		hi := (part + 1) * len(data) / p
		if lo < hi {
			return emit(data[lo:hi:hi])
		}
		return nil
	})
}

// ReadTextFile reads a DFS file as lines. Unlike Spark's one-task-per-
// split model, Flink runs `parallelism` source subtasks that pull input
// splits dynamically — a pipelined plan cannot time-share task waves, so
// the source parallelism is bounded by slots, not by block count. Each
// subtask reads a split when it pulls it, a batch at a time, so a split
// never exists as a collection: its lines are views of the stored file that
// flow down the pipeline as they are found.
func ReadTextFile(e *Env, name string) (*DataSet[string], error) {
	f, err := e.fs.Open(name)
	if err != nil {
		return nil, fmt.Errorf("flink: readTextFile: %w", err)
	}
	return splitSource(e, f, f.LineBatches), nil
}

// ReadFixedRecords reads fixed-width binary records (Tera Sort input),
// with the same dynamic split assignment as ReadTextFile.
func ReadFixedRecords(e *Env, name string, recSize int) (*DataSet[[]byte], error) {
	f, err := e.fs.Open(name)
	if err != nil {
		return nil, fmt.Errorf("flink: readFixedRecords: %w", err)
	}
	return splitSource(e, f, func(s int, buf [][]byte, yield func([][]byte) error) error {
		return f.FixedRecordBatches(s, recSize, buf, yield)
	}), nil
}

// splitSource builds the file source: subtask t reads splits t, t+p, …
// through read (a dfs split reader), inside its own pull loop, and emits
// them exec.batch.size records at a time from the subtask's one buffer. The
// batches are that buffer, borrowed like any pushed batch; the records are
// views of the stored file and may be kept.
func splitSource[T any](e *Env, f *dfs.File,
	read func(split int, buf []T, yield func([]T) error) error) *DataSet[T] {
	n := f.NumBlocks()
	p := sourceParallelism(e, n)
	width := e.conf.ExecBatchSize
	return newSource(e, "DataSource", p, f.PreferredNode,
		func(task int, emit func([]T) error) error {
			buf := make([]T, width)
			var recs int64
			count := func(batch []T) error {
				recs += int64(len(batch))
				return emit(batch)
			}
			var err error
			for s := task; s < n && err == nil; s += p {
				err = read(s, buf, count)
			}
			e.metrics.RecordsRead.Add(recs)
			return err
		})
}

// sourceParallelism bounds source subtasks by the default parallelism and
// the number of splits.
func sourceParallelism(e *Env, splits int) int {
	p := e.parallelism
	if splits < p {
		p = splits
	}
	if p < 1 {
		p = 1
	}
	return p
}

// ErrInsufficientSlots is returned at job submission when the pipelined
// plan needs more concurrently running tasks than the cluster has task
// slots — Flink cannot time-share a pipeline the way Spark time-shares
// stage waves (the paper hit this when parallelism exceeded the custom
// partition count).
type ErrInsufficientSlots struct {
	NeededPerNode, Slots int
}

// Error implements error.
func (e *ErrInsufficientSlots) Error() string {
	return fmt.Sprintf("flink: insufficient task slots: plan needs %d concurrent tasks on a node, %d slots configured",
		e.NeededPerNode, e.Slots)
}
