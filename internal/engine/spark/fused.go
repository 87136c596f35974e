package spark

import "repro/internal/core"

// This file is the engine half of the dataflow layer's operator fusion: a
// whole Map→Filter→FlatMap chain arrives as one compiled kernel and
// becomes ONE narrow RDD, instead of one RDD (and one intermediate slice)
// per operator — whole-stage codegen in miniature. The chain's record
// types are erased at the dataflow layer (continuation-passing closures),
// so the parent arrives as `any` and the kernel constructor carries the
// typed work: called with this side's typed sink, func([]U) error, it
// compiles one kernel instance and returns its push side — a func([]R) error
// for the parent's record type, boxed — which drives each batch the parent
// yields through the instance, cutting it into exec.batch.size batches where
// it is wider, and reports the sink's first error. One instance per serial
// record stream: instances carry per-stream scratch, and that scratch is what
// the sink is handed, so a batch is borrowed only until the sink returns.
//
// The fused RDD is a stream first (newStreamRDD). Its one kernel driver is
// the push form stream(p, tc, sink): the parent's partition is pulled through
// forEachBatch — batch by batch when the parent streams too (a file source,
// another chain), in one piece when it is persisted or plain — through a
// fresh kernel instance straight into sink, and nothing the parent or the
// chain produces is collected on the way — Spark's iterator chaining inside
// a stage. The consumers that fold a partition (the shuffle map writer,
// Count, Reduce) reach it through RDD.forEachBatch; the ones that need the
// partition as one get compute, the stream gathered.

// fusedRDD is the erased parent view FusedNarrow needs beyond anyRDD.
type fusedRDD interface {
	anyRDD
	ctxOf() *Context
	forEachBatchAny(p int, tc *taskContext, push any) error
}

func (r *RDD[T]) ctxOf() *Context { return r.ctx }

// forEachBatchAny is forEachBatch for a consumer that has erased T: push is
// a kernel instance's push side, a func([]T) error boxed as any, unboxed
// here once per partition.
func (r *RDD[T]) forEachBatchAny(p int, tc *taskContext, push any) error {
	typed := push.(func([]T) error)
	return r.forEachBatch(p, tc, func(_ int, batch []T) error { return typed(batch) })
}

// FusedNarrow builds one narrow RDD computing a fused operator chain.
// parent must be a *RDD of the chain's input type; name and kind label the
// collapsed operator in lineage and plans. Partitioning, locality and the
// parent's cache behaviour (iterator honours persisted blocks) are
// unchanged — only the per-operator materialization disappears.
func FusedNarrow[U any](parent any, name string, kind core.OpKind,
	kernel func(sink func([]U) error) (push any)) *RDD[U] {
	r := parent.(fusedRDD)
	return newStreamRDD(r.ctxOf(), name, kind, r.partitions(), []dep{{parent: r}},
		func(p int, tc *taskContext, sink func(int, []U) error) error {
			return r.forEachBatchAny(p, tc, kernel(func(batch []U) error { return sink(p, batch) }))
		})
}
