package dataflow

import (
	"cmp"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/engine/mapreduce"
)

// This file is the MapReduce half of the lowering: a Dataset[T] lowers to
// an *mrFrag[T] — a splittable input with every narrow operator composed
// into its per-split reader, i.e. the map phase of the NEXT job. Each
// shuffle boundary (ReduceByKey, SortByKey) or job-shaped action (Count)
// turns the frag into a full two-phase job on the real engine: map task i
// reads split i and runs the fused chain over it, then spill-sorted map
// output, a materialization barrier, shuffle and sort-merge reduce.
// Nothing is cached anywhere: re-consuming a frag (a second action, an
// iteration round) re-reads the input and re-runs the chain, the repeated
// cost that Spark's persistence and Flink's native iterations eliminate.

// mrSplits is one evaluation of a frag's stream, split by split: each(i,
// yield) pushes split i's records to yield — reading the block and running
// the narrow chain when it is called, which is inside map task i once a job
// consumes the frag, so different splits run concurrently — with the splits'
// preferred nodes and the byte volume the map phase charges as DFS reads. A
// split arrives in as many batches as its producer makes (a reduce output is
// one, a file read and a fused chain emit one per exec.batch.size records);
// each is borrowed until yield returns, and yield's first error ends the
// split and is what each returns. Nothing between the reader and yield holds
// a split.
type mrSplits[T any] struct {
	n     int
	each  func(i int, yield func([]T) error) error
	pref  func(int) int
	bytes int64
}

// splitsOf wraps partitions that already exist (a reduce output, a split
// slice) in the per-split form.
func splitsOf[T any](parts [][]T, pref func(int) int, bytes int64) mrSplits[T] {
	return mrSplits[T]{n: len(parts), pref: pref, bytes: bytes,
		each: func(i int, yield func([]T) error) error { return yield(parts[i]) }}
}

// records evaluates the splits in order on the caller's goroutine — the
// driver reading a job's output directory back — and gathers them.
func (sp mrSplits[T]) records() []T {
	var out []T
	for i := 0; i < sp.n; i++ {
		_ = sp.each(i, func(recs []T) error { // each returns only yield's error: none
			out = append(out, recs...)
			return nil
		})
	}
	return out
}

// foreachPart evaluates the splits as one wave of tasks on the cluster
// runtime, task i handing split i's batches to fn on the split's preferred
// node — the OutputFormat end of a job's reduce tasks, or a whole map-only
// job when no shuffle has consumed the frag yet (the read and the narrow
// chain then run here, in parallel, not on the driver).
//
// A panic in a task — the narrow chain's user functions run here — fails the
// wave with an error naming the task, not the process.
func (sp mrSplits[T]) foreachPart(c *mapreduce.Cluster, fn func(i int, batch []T) error) error {
	tasks := make([]cluster.Task, sp.n)
	for i := range tasks {
		tasks[i] = cluster.Task{Node: sp.pref(i), Fn: func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("dataflow: mapreduce task %d panicked: %v", i, r)
				}
			}()
			c.Metrics().TasksLaunched.Add(1)
			return sp.each(i, func(batch []T) error { return fn(i, batch) })
		}}
	}
	return c.Runtime().RunTasks(tasks)
}

// input hands the splits to the engine as the next job's input.
func (sp mrSplits[T]) input(c *mapreduce.Cluster) mapreduce.Input[T] {
	return mapreduce.SplitsInput(c, sp.n, sp.each, sp.pref, sp.bytes)
}

// mrFrag is the MapReduce lowering of a Dataset: load opens the inputs and
// runs the upstream jobs (called once per consuming job — no caching); the
// map-side stream itself is evaluated per split by whoever consumes it.
type mrFrag[T any] struct {
	c    *mapreduce.Cluster
	load func() (mrSplits[T], error)
	// What load runs, for PlanOf: plan draws it from the Job values load
	// runs. A fused chain has no plan: it is the operator (kind, label) over
	// the frag in, kept as fields so that lowering it allocates nothing
	// more than its load.
	plan  func(p *mrPlan) *core.PlanNode
	kind  core.OpKind
	label string
	in    mrRenderer
}

// mrRenderer is a frag of any record type, for PlanOf.
type mrRenderer interface {
	render(p *mrPlan) *core.PlanNode
}

// render draws what f's load runs, without running it.
func (f *mrFrag[T]) render(p *mrPlan) *core.PlanNode {
	if f.plan == nil {
		return p.node(f.kind, f.label, f.in.render(p))
	}
	return f.plan(p)
}

// mrPlan numbers the nodes of one rendered mapreduce plan.
type mrPlan struct{ n int }

func (p *mrPlan) node(kind core.OpKind, label string, in ...*core.PlanNode) *core.PlanNode {
	p.n++
	return core.NewPlanNode(p.n, kind, label, in...)
}

// job renders a job over in: the operators ops (the job's Operators) lists
// after its InputSplit, which in renders itself. The map also reads side,
// e.g. a distributed cache.
func (p *mrPlan) job(kind core.OpKind, ops []string, in *core.PlanNode, side ...*core.PlanNode) *core.PlanNode {
	in = p.node(kind, ops[1], append([]*core.PlanNode{in}, side...)...)
	for _, op := range ops[2:] {
		in = p.node(kind, op, in)
	}
	return in
}

// inputSplit renders a source frag.
func inputSplit(p *mrPlan) *core.PlanNode { return p.node(core.OpSource, "InputSplit") }

// mrCluster asserts the session's engine handle.
func mrCluster(s *Session) *mapreduce.Cluster { return s.h.(*mapreduce.Cluster) }

// fileFrag reads a DFS file one split per block through read, a dfs split
// reader: the task evaluating split i streams it exec.batch.size records at
// a time from one buffer of its own, so yield sees that buffer (borrowed)
// holding views of the stored file (which may be kept).
func fileFrag[T any](s *Session, name, what string,
	read func(f *dfs.File, block int, buf []T, yield func([]T) error) error) *mrFrag[T] {
	c := mrCluster(s)
	width := s.batchWidth()
	return &mrFrag[T]{c: c, plan: inputSplit, load: func() (mrSplits[T], error) {
		f, err := c.FS().Open(name)
		if err != nil {
			return mrSplits[T]{}, fmt.Errorf("dataflow: mapreduce %s source: %w", what, err)
		}
		return mrSplits[T]{n: f.NumBlocks(), pref: f.PreferredNode, bytes: f.Size(),
			each: func(i int, yield func([]T) error) error { return read(f, i, make([]T, width), yield) }}, nil
	}}
}

// textFrag reads a DFS file as lines, one split per block.
func textFrag(s *Session, name string) *mrFrag[string] {
	return fileFrag(s, name, "text", (*dfs.File).LineBatches)
}

// binaryFrag reads fixed-width records, one split per block.
func binaryFrag(s *Session, name string, recSize int) *mrFrag[[]byte] {
	return fileFrag(s, name, "binary", func(f *dfs.File, i int, buf [][]byte, yield func([][]byte) error) error {
		return f.FixedRecordBatches(i, recSize, buf, yield)
	})
}

// sliceFrag splits an in-memory slice with the engine's own rule, so the
// dataflow path partitions identically to native SliceInput jobs.
func sliceFrag[T any](s *Session, data []T, parallelism int) *mrFrag[T] {
	c := mrCluster(s)
	return &mrFrag[T]{c: c, plan: inputSplit, load: func() (mrSplits[T], error) {
		return splitsOf(mapreduce.SplitSlice(c, data, parallelism), c.Runtime().NodeFor, 0), nil
	}}
}

// foldValues reduces a non-empty value group with f.
func foldValues[V any](vs []V, f func(V, V) V) V {
	acc := vs[0]
	for _, v := range vs[1:] {
		acc = f(acc, v)
	}
	return acc
}

// fragReduceByKey runs the keyed aggregation as one full job: the fused
// chain feeds the map phase, f is both the Combine and the Reduce.
func fragReduceByKey[K cmp.Ordered, V any](in *mrFrag[core.Pair[K, V]], f func(V, V) V, reduces int) *mrFrag[core.Pair[K, V]] {
	return jobFrag(in, core.OpReduceByKey, mapreduce.Job[core.Pair[K, V], K, V]{
		Name:    "ReduceByKey",
		Reduces: reduces,
		Map:     func(p core.Pair[K, V], emit func(K, V)) { emit(p.Key, p.Value) },
		Combine: func(_ K, vs []V) V { return foldValues(vs, f) },
		Reduce:  func(k K, vs []V, emit func(K, V)) { emit(k, foldValues(vs, f)) },
	})
}

// fragSortByKey runs the range-partitioned sort job: explicit partitioner,
// identity reduce — the engine's sort-merge produces the order, exactly the
// original Hadoop TeraSort.
func fragSortByKey[K cmp.Ordered, V any](in *mrFrag[core.Pair[K, V]], part core.Partitioner[K]) *mrFrag[core.Pair[K, V]] {
	return jobFrag(in, core.OpPartition, mapreduce.Job[core.Pair[K, V], K, V]{
		Name:      "SortByKey",
		Reduces:   part.NumPartitions(),
		Map:       func(p core.Pair[K, V], emit func(K, V)) { emit(p.Key, p.Value) },
		Partition: func(k K, _ int) int { return part.Partition(k) },
	})
}

// jobFrag is job over in's splits, whose output partitions are the next
// frag's splits.
func jobFrag[K cmp.Ordered, V any](in *mrFrag[core.Pair[K, V]], kind core.OpKind, job mapreduce.Job[core.Pair[K, V], K, V]) *mrFrag[core.Pair[K, V]] {
	c := in.c
	return &mrFrag[core.Pair[K, V]]{c: c,
		plan: func(p *mrPlan) *core.PlanNode { return p.job(kind, job.Operators(), in.render(p)) },
		load: func() (mrSplits[core.Pair[K, V]], error) {
			sp, err := in.load()
			if err != nil {
				return mrSplits[core.Pair[K, V]]{}, err
			}
			out, err := mapreduce.Run(c, job, sp.input(c))
			if err != nil {
				return mrSplits[core.Pair[K, V]]{}, err
			}
			return splitsOf(out.Partitions, c.Runtime().NodeFor, 0), nil
		}}
}

// count runs the counting job (map emits one pair per record, a single
// reduce sums — the distributed-grep shape from the MapReduce paper).
func (f *mrFrag[T]) count() (int64, error) {
	sp, err := f.load()
	if err != nil {
		return 0, err
	}
	out, err := mapreduce.Run(f.c, countJob[T](), sp.input(f.c))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, kv := range out.Pairs() {
		total += kv.Value
	}
	return total, nil
}

// countJob is the job count runs.
func countJob[T any]() mapreduce.Job[T, int, int64] {
	return mapreduce.Job[T, int, int64]{
		Name:    "Count",
		Reduces: 1,
		Map:     func(_ T, emit func(int, int64)) { emit(0, 1) },
		Combine: func(_ int, vs []int64) int64 { return foldValues(vs, func(a, b int64) int64 { return a + b }) },
		Reduce: func(k int, vs []int64, emit func(int, int64)) {
			emit(k, foldValues(vs, func(a, b int64) int64 { return a + b }))
		},
	}
}

// collect materializes the frag on the driver, like reading a job's output
// directory back.
func (f *mrFrag[T]) collect() ([]T, error) {
	sp, err := f.load()
	if err != nil {
		return nil, err
	}
	return sp.records(), nil
}
