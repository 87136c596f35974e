package spark

import (
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/serde"
)

// StorageLevel selects where persisted partitions live, the fine-grained
// control the paper highlights as a Spark advantage over Flink
// (Section II-C).
type StorageLevel int

// Storage levels.
const (
	// StorageNone disables persistence (the default, ephemeral RDD).
	StorageNone StorageLevel = iota
	// StorageMemoryOnly caches deserialized partitions on the heap's
	// storage fraction; evicted partitions are recomputed from lineage.
	StorageMemoryOnly
	// StorageMemoryAndDisk degrades evicted partitions to serialized disk
	// blocks instead of dropping them.
	StorageMemoryAndDisk
	// StorageDiskOnly always serializes partitions to disk.
	StorageDiskOnly
)

// String implements fmt.Stringer.
func (l StorageLevel) String() string {
	switch l {
	case StorageMemoryOnly:
		return "MEMORY_ONLY"
	case StorageMemoryAndDisk:
		return "MEMORY_AND_DISK"
	case StorageDiskOnly:
		return "DISK_ONLY"
	default:
		return "NONE"
	}
}

// dep is one lineage edge. A nil shuffle means a narrow dependency.
type dep struct {
	parent  anyRDD
	shuffle *shuffleDep
}

// anyRDD is the type-erased view the DAG scheduler works with.
type anyRDD interface {
	rddID() int
	label() string
	opKind() core.OpKind
	partitions() int
	deps() []dep
	prefNode(part int) int
	fullyCached() bool
}

// RDD is a resilient distributed dataset: a lazy, partitioned collection
// with lineage. All transformations are free functions because Go methods
// cannot introduce type parameters.
type RDD[T any] struct {
	ctx      *Context
	id       int
	name     string
	kind     core.OpKind
	numParts int
	parents  []dep
	compute  func(part int, tc *taskContext) ([]T, error)
	// stream, when non-nil, pushes the partition to sink batch by batch
	// without building it (newStreamRDD); compute is then stream gathered.
	stream func(part int, tc *taskContext, sink func(part int, batch []T) error) error
	pref   func(part int) int

	// partitioner is Spark's rdd.partitioner: which partitioner this RDD's
	// keys were placed by, as partitionerKey identifies it, or nil when
	// nothing is known about where a key lives. The operators that shuffle
	// by a partitioner set it, the ones that cannot move a key (Filter,
	// MapValues) copy it, and every other one leaves it nil. A keyed
	// operator whose input already has the partitioner it needs takes a
	// narrow dependency instead of a shuffle.
	partitioner any

	level StorageLevel
	codec serde.Codec[T] // used for disk-level persistence
}

func newRDD[T any](c *Context, name string, kind core.OpKind, numParts int, parents []dep,
	compute func(int, *taskContext) ([]T, error)) *RDD[T] {
	return &RDD[T]{
		ctx:      c,
		id:       int(c.nextRDD.Add(1)),
		name:     name,
		kind:     kind,
		numParts: numParts,
		parents:  parents,
		compute:  compute,
	}
}

// newStreamRDD builds an RDD that is a stream first (a file source, a fused
// chain): stream pushes a partition to its sink batch by batch, each batch
// borrowed until the sink returns, and compute is that stream gathered into
// a slice — for persistence (the block manager stores whole partitions) and
// for the operators and actions that take a partition as a []T.
func newStreamRDD[T any](c *Context, name string, kind core.OpKind, numParts int, parents []dep,
	stream func(part int, tc *taskContext, sink func(part int, batch []T) error) error) *RDD[T] {
	r := newRDD[T](c, name, kind, numParts, parents, func(p int, tc *taskContext) ([]T, error) {
		var part []T
		err := stream(p, tc, func(_ int, batch []T) error {
			part = memory.Append(part, batch...)
			return nil
		})
		return part, err
	})
	r.stream = stream
	return r
}

func (r *RDD[T]) rddID() int          { return r.id }
func (r *RDD[T]) label() string       { return r.name }
func (r *RDD[T]) opKind() core.OpKind { return r.kind }
func (r *RDD[T]) partitions() int     { return r.numParts }
func (r *RDD[T]) deps() []dep         { return r.parents }

func (r *RDD[T]) prefNode(part int) int {
	if r.pref != nil {
		return r.pref(part)
	}
	// Narrow chains inherit their parent's locality.
	if len(r.parents) == 1 && r.parents[0].shuffle == nil {
		return r.parents[0].parent.prefNode(part)
	}
	return -1
}

func (r *RDD[T]) fullyCached() bool {
	if r.level == StorageNone {
		return false
	}
	return r.ctx.blocks.fullyCached(r.id, r.numParts)
}

// Context returns the owning context.
func (r *RDD[T]) Context() *Context { return r.ctx }

// NumPartitions returns the partition count.
func (r *RDD[T]) NumPartitions() int { return r.numParts }

// Name returns the operator label.
func (r *RDD[T]) Name() string { return r.name }

// Persist marks the RDD for caching at the given level, like
// RDD.persist(). It returns the receiver for chaining.
func (r *RDD[T]) Persist(level StorageLevel) *RDD[T] {
	r.level = level
	if level != StorageNone {
		// Every level needs the codec: memory levels for size estimation,
		// disk levels for the serialized representation.
		r.codec = serde.Of[T](r.ctx.style)
		r.ctx.metrics.CodecFallbacks.Add(int64(r.codec.Fallbacks))
	}
	return r
}

// Cache is Persist(StorageMemoryOnly).
func (r *RDD[T]) Cache() *RDD[T] { return r.Persist(StorageMemoryOnly) }

// Unpersist drops cached blocks.
func (r *RDD[T]) Unpersist() {
	r.ctx.blocks.dropRDD(r.id)
	r.level = StorageNone
}

// iterator returns partition p, honoring the cache: get or compute then
// put. It is the engine's equivalent of RDD.iterator().
func (r *RDD[T]) iterator(p int, tc *taskContext) ([]T, error) {
	if r.level == StorageNone {
		return r.compute(p, tc)
	}
	if data, ok := getBlock[T](r.ctx.blocks, r.id, p, r.codec); ok {
		tc.metrics.CacheHits.Add(1)
		return data, nil
	}
	tc.metrics.CacheMisses.Add(1)
	data, err := r.compute(p, tc)
	if err != nil {
		return nil, err
	}
	putBlock(r.ctx.blocks, r.id, p, tc.node, data, r.level, r.codec)
	return data, nil
}

// forEachBatch feeds partition p to sink in order, for the consumers that
// fold a partition instead of keeping it: a streaming RDD that is not
// persisted pushes its batches straight through — each borrowed until sink
// returns, so sink copies what it keeps — and everything else (a persisted
// RDD included: its blocks hold whole partitions) arrives from iterator in
// one call. sink's first error ends the partition and is returned. sink is
// told the partition, so an action builds one for the whole job and a task
// over a plain RDD allocates nothing to be counted or reduced.
func (r *RDD[T]) forEachBatch(p int, tc *taskContext, sink func(p int, batch []T) error) error {
	if r.stream != nil && r.level == StorageNone {
		return r.stream(p, tc, sink)
	}
	data, err := r.iterator(p, tc)
	if err != nil || len(data) == 0 {
		return err
	}
	return sink(p, data)
}

// --- Narrow transformations -------------------------------------------

// Map applies f to every record.
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	return narrow(r, "Map", core.OpMap, func(in []T, tc *taskContext) ([]U, error) {
		out := make([]U, len(in))
		for i, v := range in {
			out[i] = f(v)
		}
		return out, nil
	})
}

// Filter keeps records where f is true. No record moves, so the result
// keeps r's partitioner.
func Filter[T any](r *RDD[T], f func(T) bool) *RDD[T] {
	out := narrow(r, "Filter", core.OpFilter, func(in []T, tc *taskContext) ([]T, error) {
		out := in[:0:0]
		for _, v := range in {
			if f(v) {
				out = append(out, v)
			}
		}
		return out, nil
	})
	out.partitioner = r.partitioner
	return out
}

// MapPartitions transforms each partition as a whole.
func MapPartitions[T, U any](r *RDD[T], f func([]T) []U) *RDD[U] {
	return narrow(r, "MapPartitions", core.OpMapPartitions, func(in []T, tc *taskContext) ([]U, error) {
		return f(in), nil
	})
}

// narrow builds a one-parent, same-partitioning RDD.
func narrow[T, U any](r *RDD[T], name string, kind core.OpKind,
	f func([]T, *taskContext) ([]U, error)) *RDD[U] {
	out := newRDD[U](r.ctx, name, kind, r.numParts, []dep{{parent: r}}, nil)
	out.compute = func(p int, tc *taskContext) ([]U, error) {
		in, err := r.iterator(p, tc)
		if err != nil {
			return nil, err
		}
		return f(in, tc)
	}
	return out
}

// --- Actions ------------------------------------------------------------

// Collect gathers all records on the driver in partition order.
func Collect[T any](r *RDD[T]) ([]T, error) {
	parts := make([][]T, r.numParts)
	err := runJob(r, "Collect", func(p int, data []T, tc *taskContext) error {
		parts[p] = data
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []T
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Count returns the number of records (filter → count in the paper's Grep).
func Count[T any](r *RDD[T]) (int64, error) {
	counts := make([]int64, r.numParts)
	add := func(p int, batch []T) error {
		counts[p] += int64(len(batch))
		return nil
	}
	err := runTasks(r, "Count", func(p int, tc *taskContext) error {
		counts[p] = 0 // a retried attempt counts from the start
		return r.forEachBatch(p, tc, add)
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// ForeachPartition runs f once per partition for its side effects.
func ForeachPartition[T any](r *RDD[T], f func(int, []T) error) error {
	return runJob(r, "ForeachPartition", func(p int, data []T, tc *taskContext) error {
		return f(p, data)
	})
}
