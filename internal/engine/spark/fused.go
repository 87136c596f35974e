package spark

import "repro/internal/core"

// This file is the engine half of the dataflow layer's operator fusion: a
// whole Map→Filter→FlatMap chain arrives as one compiled kernel and
// becomes ONE narrow RDD, instead of one RDD (and one intermediate slice)
// per operator — whole-stage codegen in miniature. The chain's record
// types are erased at the dataflow layer (continuation-passing closures),
// so the parent arrives as `any` and the kernel constructor carries the
// typed work: called with this side's typed sink, func([]U) error, it
// compiles one kernel instance and returns its push side, which drives one
// partition's records ([]R, boxed) through the instance — cutting it into
// exec.batch.size batches under vectorized compilation — and reports the
// sink's first error. One instance per serial record stream: instances carry
// per-stream scratch, and that scratch is what the sink is handed, so a
// batch is borrowed only until the sink returns.
//
// The fused RDD is a stream first. Its one kernel driver is the push form
// stream(p, tc, sink): the parent's partition goes through a fresh kernel
// instance straight into sink, and nothing the chain produces is collected
// on the way — Spark's iterator chaining inside a stage. The consumers that
// fold a partition (the shuffle map writer, Count, Reduce) reach it through
// RDD.forEachBatch. compute is the same stream gathered into a slice, for
// the consumers that need the partition as one: persistence (the block
// manager stores whole partitions) and the operators and actions that take
// a []T. It is the only place a kernel sink appends to a whole partition.

// fusedRDD is the erased parent view FusedNarrow needs beyond anyRDD.
type fusedRDD interface {
	anyRDD
	ctxOf() *Context
	iterAny(p int, tc *taskContext) (any, error)
}

func (r *RDD[T]) ctxOf() *Context { return r.ctx }
func (r *RDD[T]) iterAny(p int, tc *taskContext) (any, error) {
	return r.iterator(p, tc)
}

// FusedNarrow builds one narrow RDD computing a fused operator chain.
// parent must be a *RDD of the chain's input type; name and kind label the
// collapsed operator in lineage and plans. Partitioning, locality and the
// parent's cache behaviour (iterator honours persisted blocks) are
// unchanged — only the per-operator materialization disappears.
func FusedNarrow[U any](parent any, name string, kind core.OpKind,
	kernel func(sink func([]U) error) (push func(recs any) error)) *RDD[U] {
	r := parent.(fusedRDD)
	out := newRDD[U](r.ctxOf(), name, kind, r.partitions(), []dep{{parent: r}}, nil)
	out.stream = func(p int, tc *taskContext, sink func([]U) error) error {
		recs, err := r.iterAny(p, tc)
		if err != nil {
			return err
		}
		return kernel(sink)(recs)
	}
	out.compute = func(p int, tc *taskContext) ([]U, error) {
		var part []U
		err := out.stream(p, tc, func(us []U) error {
			part = append(part, us...)
			return nil
		})
		return part, err
	}
	return out
}
