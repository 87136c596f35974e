package mapreduce

import (
	"cmp"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/dfs"
)

// Job describes one MapReduce job over input records of type I with
// intermediate key/value pairs (K, V). Keys must be ordered because the
// engine is strictly sort-based: map outputs are spilled as sorted runs and
// reduces consume a sort-merge of those runs, like Hadoop's
// WritableComparable contract.
type Job[I any, K cmp.Ordered, V any] struct {
	// Name labels timeline spans and intermediate files.
	Name string
	// Map emits zero or more intermediate pairs per input record.
	Map func(in I, emit func(K, V))
	// Combine optionally folds the values of one key within a sorted run
	// before it spills (the map-side combiner). Nil disables combining. vs
	// is borrowed until the call returns: the task refills the same slice
	// for its next key, as Hadoop reuses its values iterator, so Combine
	// folds it and keeps neither the slice nor a subslice of it.
	Combine func(k K, vs []V) V
	// Reduce folds the values of one key and emits output pairs. Nil uses
	// the identity reducer (every (k, v) is emitted as-is, in key order) —
	// the TeraSort configuration. vs is borrowed until the call returns, as
	// Combine's is; the values themselves may be emitted or kept.
	Reduce func(k K, vs []V, emit func(K, V))
	// Reduces is the reduce-task count; 0 uses the cluster default.
	Reduces int
	// Partition routes a key to a reduce task; nil hashes the key. TeraSort
	// installs the shared range partitioner here.
	Partition func(k K, reduces int) int
}

// Operators returns the job's operator chain for plan tables, in the rigid
// order classic MapReduce always executes.
func (j Job[I, K, V]) Operators() []string {
	ops := []string{"InputSplit", "Map"}
	if j.Combine != nil {
		ops = append(ops, "Combine")
	}
	ops = append(ops, "SpillSort", "Materialize", "Shuffle", "MergeSort")
	if j.Reduce != nil {
		ops = append(ops, "Reduce")
	} else {
		ops = append(ops, "IdentityReduce")
	}
	return append(ops, "Output")
}

// Input is a splittable job input: one split per DFS block, each with its
// preferred (data-local) node, like a Hadoop InputFormat. It holds no
// records: map task m calls scan(m, yield) for its split, so reading — and
// whatever pipeline the caller composed into scan — runs inside the task,
// and the split reaches the map function as the batches scan yields, the
// way a RecordReader hands a mapper its records: nothing upstream of the
// map function has to exist as a whole split. A yielded batch is borrowed
// until yield returns; yield's first error ends the scan and is returned.
type Input[I any] struct {
	n     int
	scan  func(m int, yield func([]I) error) error
	pref  func(split int) int
	bytes int64
}

// NumSplits returns the number of map tasks the input produces.
func (in Input[I]) NumSplits() int { return in.n }

// SplitSlice is the engine's slice-partitioning rule: one split per map
// task, clamped so no split is empty; numSplits ≤ 0 derives one per node.
// It is exported so the dataflow lowering's slice sources partition by it.
func SplitSlice[I any](c *Cluster, data []I, numSplits int) [][]I {
	if numSplits <= 0 {
		numSplits = c.rt.Spec().Nodes
	}
	if numSplits > len(data) && len(data) > 0 {
		numSplits = len(data)
	}
	if numSplits == 0 {
		numSplits = 1
	}
	splits := make([][]I, numSplits)
	for i := range splits {
		lo := i * len(data) / numSplits
		hi := (i + 1) * len(data) / numSplits
		splits[i] = data[lo:hi:hi]
	}
	return splits
}

// SplitsInput builds a job input of n splits from the caller's own reader,
// with the splits' preferred nodes and the byte volume the map phase
// charges as DFS reads — the entry point for callers that fuse their own
// record pipelines into the map phase (the dataflow layer's lowering):
// scan(m, yield) runs inside map task m, concurrently with the other
// splits', and pushes the split to yield in as many batches as it likes
// (see Input for the terms). A nil pref places splits round-robin.
func SplitsInput[I any](c *Cluster, n int, scan func(m int, yield func([]I) error) error,
	pref func(split int) int, bytes int64) Input[I] {
	if pref == nil {
		pref = c.rt.NodeFor
	}
	return Input[I]{n: n, scan: scan, pref: pref, bytes: bytes}
}

// Output is one job's reduce output, kept per reduce partition in key
// order, for the caller to read back.
type Output[K cmp.Ordered, V any] struct {
	Partitions [][]core.Pair[K, V]
}

// Pairs concatenates the partitions in partition order.
func (o *Output[K, V]) Pairs() []core.Pair[K, V] {
	var out []core.Pair[K, V]
	for _, p := range o.Partitions {
		out = append(out, p...)
	}
	return out
}

// defaultPartition hashes the key's string form, the HashPartitioner
// default: FNV-32a over the bytes fmt's %v prints. It runs once per emitted
// record, so strings hash in place and integers through a stack buffer;
// the remaining ordered kinds (floats, named types) are formatted.
func defaultPartition[K cmp.Ordered](k K, reduces int) int {
	var buf [20]byte // the longest decimal: -9223372036854775808
	var text []byte
	switch p := any(&k).(type) {
	case *string:
		return int(fnv32a(*p) % uint32(reduces))
	case *int:
		text = strconv.AppendInt(buf[:0], int64(*p), 10)
	case *int8:
		text = strconv.AppendInt(buf[:0], int64(*p), 10)
	case *int16:
		text = strconv.AppendInt(buf[:0], int64(*p), 10)
	case *int32:
		text = strconv.AppendInt(buf[:0], int64(*p), 10)
	case *int64:
		text = strconv.AppendInt(buf[:0], *p, 10)
	case *uint:
		text = strconv.AppendUint(buf[:0], uint64(*p), 10)
	case *uint8:
		text = strconv.AppendUint(buf[:0], uint64(*p), 10)
	case *uint16:
		text = strconv.AppendUint(buf[:0], uint64(*p), 10)
	case *uint32:
		text = strconv.AppendUint(buf[:0], uint64(*p), 10)
	case *uint64:
		text = strconv.AppendUint(buf[:0], *p, 10)
	case *uintptr:
		text = strconv.AppendUint(buf[:0], uint64(*p), 10)
	default:
		text = fmt.Appendf(nil, "%v", k)
	}
	return int(fnv32a(text) % uint32(reduces))
}

// fnv32a is 32-bit FNV-1a exactly as hash/fnv computes it.
func fnv32a[B string | []byte](b B) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint32(b[i])) * 16777619
	}
	return h
}

// replicaNode returns the node holding block i of a DFS file (for the
// local- vs remote-fetch accounting of the shuffle).
func replicaNode(f *dfs.File, i int) int { return f.PreferredNode(i) }
