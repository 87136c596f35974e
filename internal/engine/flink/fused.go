package flink

import "repro/internal/core"

// This file is the engine half of the dataflow layer's operator fusion: a
// whole Map→Filter→FlatMap chain arrives as one compiled kernel and becomes
// ONE chained operator in the producing task, instead of one DataSet (and
// one intermediate batch slice) per operator. Flink's operator chaining
// already keeps narrow operators in the same task; fusion removes the
// per-operator sink hops and batch materializations on top of it. The
// chain's record types are erased at the dataflow layer, so the parent
// arrives as `any` and the kernel constructor carries the typed work (see
// spark.FusedNarrow): called with the downstream partSink's push it compiles
// one kernel instance — one per subtask sink, instances carry per-stream
// scratch — whose push side drives one upstream batch through the chain.
// Every batch the kernel emits goes straight into the downstream push,
// borrowed until that push returns: records move operator to operator and
// the chain's output is never collected per split.

// erasedSink is a partSink with the batch element type erased: push is a
// func([]R) error boxed as any.
type erasedSink struct {
	push  any
	close func() error
}

// produceErased runs produce through erased sinks, unboxing each push once.
func (d *DataSet[T]) produceErased(ctx *jobCtx, sinks []erasedSink) error {
	wrapped := make([]partSink[T], len(sinks))
	for p, es := range sinks {
		wrapped[p] = partSink[T]{push: es.push.(func([]T) error), close: es.close}
	}
	return d.produce(ctx, wrapped)
}

// fusedDS is the erased parent view FusedChain needs.
type fusedDS interface {
	anyDataSet
	produceErased(ctx *jobCtx, sinks []erasedSink) error
	fuseMeta() (e *Env, parallelism int, pref func(int) int)
}

func (d *DataSet[T]) fuseMeta() (*Env, int, func(int) int) {
	return d.env, d.parallelism, d.pref
}

// FusedChain builds one chained operator computing a fused narrow chain.
// parent must be a *DataSet of the chain's input type; label and kind name
// the collapsed operator in the task chain. Like every chainOp, it runs in
// the parent's tasks — no exchange, no new tasks.
func FusedChain[U any](parent any, label string, kind core.OpKind,
	kernel func(sink func([]U) error) (push any)) *DataSet[U] {
	p := parent.(fusedDS)
	e, parallelism, pref := p.fuseMeta()
	ds := newDataSet[U](e, append(append([]string{}, p.chainLabels()...), label), kind,
		parallelism, pref, planParent{ds: p})
	ds.produce = func(ctx *jobCtx, sinks []partSink[U]) error {
		wrapped := make([]erasedSink, len(sinks))
		for i := range sinks {
			// The kernel latches the first error the downstream push
			// returns: the rest of that upstream batch is not driven into
			// the failed sink, and every later push reports the same error.
			wrapped[i] = erasedSink{push: kernel(sinks[i].push), close: sinks[i].close}
		}
		return p.produceErased(ctx, wrapped)
	}
	return ds
}
