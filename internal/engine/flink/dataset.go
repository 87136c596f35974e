package flink

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/shuffle"
)

// partSink receives one partition's stream: push delivers batches in
// order, close signals end-of-input. Push and close are called from the
// producing task's goroutine — narrow operators wrap sinks, which is
// exactly operator chaining.
//
// A pushed batch is BORROWED until push returns. The producer may hand the
// same storage out again with the next batch (a fused chain pushes its
// operators' scratch, a source a view of its input, an exchange's consumer
// the one batch it decodes every packet into), so a sink that keeps
// records past the call copies them: the exchange writers serialize, or fold
// record by record into their combine tables, SortPartition, runLocal and
// Collect append into storage of their own, sinkParts encodes. Pushing a slice
// onwards inside the call (chainOp) lends it under the same terms.
type partSink[T any] struct {
	push  func(batch []T) error
	close func() error
}

// endFailed delivers end-of-input to the sink of a task that is about to
// fail with err, and returns err. A failed task skips its own flush, but the
// sink still has to close: an exchange closes its channels when its last
// producer closes, its consumer tasks range over those channels, and the job
// returns only when every task has — a sink left open is a job that hangs
// instead of reporting err. The job is marked failed first, so what buffers
// along the way hands on end-of-input alone: SortPartition does not sort and
// push a partial partition, an exchange's writer drops its table and buckets.
func endFailed[T any](ctx *jobCtx, out partSink[T], err error) error {
	ctx.failed.Store(true)
	_ = out.close() // err is the failure to report; the sink's state is moot
	return err
}

// flushAndClose ends a task's stream: its last batch, when there is one and
// the job has not failed, then end-of-input — also when that push fails.
func flushAndClose[T any](ctx *jobCtx, out partSink[T], last []T) error {
	if len(last) > 0 && !ctx.failed.Load() {
		if err := guard(func() error { return out.push(last) }); err != nil {
			return endFailed(ctx, out, err)
		}
	}
	return out.close()
}

// guard runs fn and returns a panic inside it — a user function failing in a
// task — as fn's error, so the task still ends its stream through endFailed
// instead of taking the process down or leaving an exchange open.
func guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("flink: user function panicked: %v", r)
		}
	}()
	return fn()
}

// planParent records a logical input edge for plan rendering.
type planParent struct {
	ds       anyDataSet
	exchange bool
}

// anyDataSet is the type-erased view used for plan rendering and for
// reading a DataSet's iteration scope.
type anyDataSet interface {
	dsID() int
	chainLabels() []string
	opKind() core.OpKind
	planInputs() []planParent
	iterScope() *iterScope
	stepPlan() func() anyDataSet
}

// scopeOf is the iteration scope of an operator with these inputs: the
// first scoped input's, nil when every input is on the static path.
func scopeOf(parents []planParent) *iterScope {
	for _, p := range parents {
		if sc := p.ds.iterScope(); sc != nil {
			return sc
		}
	}
	return nil
}

// DataSet is a lazily evaluated, partitioned collection. Transformations
// compose producer functions; nothing runs until an action submits the job
// and the whole pipeline is scheduled at once.
type DataSet[T any] struct {
	env         *Env
	id          int
	chain       []string // operator labels since the last exchange
	kind        core.OpKind
	parallelism int
	parents     []planParent
	pref        func(part int) int
	// scope is the iteration run whose dynamic path this DataSet is on, nil
	// on the static path (see iterScope).
	scope *iterScope
	// step, set on a bulk iteration, builds its step dataflow over a
	// placeholder partial solution for PlanOf; it is never run.
	step func() anyDataSet
	// produce registers the tasks that will push every partition into
	// sinks (len(sinks) == parallelism). It must not block.
	produce func(ctx *jobCtx, sinks []partSink[T]) error
}

func (d *DataSet[T]) dsID() int                   { return d.id }
func (d *DataSet[T]) chainLabels() []string       { return d.chain }
func (d *DataSet[T]) opKind() core.OpKind         { return d.kind }
func (d *DataSet[T]) planInputs() []planParent    { return d.parents }
func (d *DataSet[T]) iterScope() *iterScope       { return d.scope }
func (d *DataSet[T]) stepPlan() func() anyDataSet { return d.step }

// newDataSet builds an operator node with a fresh id, on the iteration
// scope of its inputs; the caller sets produce.
func newDataSet[T any](e *Env, chain []string, kind core.OpKind, parallelism int,
	pref func(int) int, parents ...planParent) *DataSet[T] {
	return &DataSet[T]{
		env:         e,
		id:          int(e.nextID.Add(1)),
		chain:       chain,
		kind:        kind,
		parallelism: parallelism,
		parents:     parents,
		pref:        pref,
		scope:       scopeOf(parents),
	}
}

// Parallelism returns the number of output partitions.
func (d *DataSet[T]) Parallelism() int { return d.parallelism }

// ChainLabel renders the operator chain, e.g.
// "DataSource->Filter->FlatMap".
func (d *DataSet[T]) ChainLabel() string { return strings.Join(d.chain, "->") }

// newSource builds a source DataSet whose tasks run gen per partition.
func newSource[T any](e *Env, label string, parallelism int, pref func(int) int,
	gen func(part int, emit func([]T) error) error) *DataSet[T] {
	ds := newDataSet[T](e, []string{label}, core.OpSource, parallelism, pref)
	ds.produce = func(ctx *jobCtx, sinks []partSink[T]) error {
		for p := 0; p < parallelism; p++ {
			p := p
			node := ctx.place(p, pref)
			ctx.addTask(node, func() error {
				if err := guard(func() error { return gen(p, sinks[p].push) }); err != nil {
					return endFailed(ctx, sinks[p], err)
				}
				return sinks[p].close()
			})
		}
		return nil
	}
	return ds
}

// chainOp builds a narrow operator chained onto its parent: the transform
// runs in the parent's task via wrapped sinks, no new tasks, no exchange.
func chainOp[T, U any](parent *DataSet[T], label string, kind core.OpKind,
	transform func(in []T, emit func([]U) error) error) *DataSet[U] {
	ds := newDataSet[U](parent.env, append(append([]string{}, parent.chain...), label), kind,
		parent.parallelism, parent.pref, planParent{ds: parent})
	ds.produce = func(ctx *jobCtx, sinks []partSink[U]) error {
		wrapped := make([]partSink[T], len(sinks))
		for p := range sinks {
			out := sinks[p]
			wrapped[p] = partSink[T]{
				push: func(batch []T) error {
					return transform(batch, out.push)
				},
				close: out.close,
			}
		}
		return parent.produce(ctx, wrapped)
	}
	return ds
}

// Map applies f to every record, chained into the producing task.
func Map[T, U any](d *DataSet[T], f func(T) U) *DataSet[U] {
	return chainOp(d, "Map", core.OpMap, func(in []T, emit func([]U) error) error {
		out := make([]U, len(in))
		for i, v := range in {
			out[i] = f(v)
		}
		return emit(out)
	})
}

// MapPartition transforms a whole partition; f sees batches as they stream
// through (Flink's mapPartition receives an iterator).
func MapPartition[T, U any](d *DataSet[T], f func([]T) []U) *DataSet[U] {
	return chainOp(d, "MapPartition", core.OpMapPartitions, func(in []T, emit func([]U) error) error {
		out := f(in)
		if len(out) == 0 {
			return nil
		}
		return emit(out)
	})
}

// SortPartitionNormalized locally sorts each partition. It is a pipeline
// breaker within the task: records buffer until end-of-input, then flow out
// sorted — but no exchange happens and the task is still the same. With a
// nil normKey the sort calls less per comparison; otherwise it compares
// packed key bytes with memcmp — Flink's normalized-key sort, the
// optimization the paper credits for the efficient sort-based runtime.
// normKey MUST be total and order exactly as less does (ties keep arrival
// order either way); serde.NormKeyerFor builds conforming writers.
func SortPartitionNormalized[T any](d *DataSet[T], less func(a, b T) bool,
	normKey func(v T, dst []byte) []byte) *DataSet[T] {
	ds := newDataSet[T](d.env, append(append([]string{}, d.chain...), "SortPartition"), core.OpSortPartition,
		d.parallelism, d.pref, planParent{ds: d})
	ds.produce = func(ctx *jobCtx, sinks []partSink[T]) error {
		wrapped := make([]partSink[T], len(sinks))
		for p := range sinks {
			out := sinks[p]
			var buf []T
			wrapped[p] = partSink[T]{
				push: func(batch []T) error {
					buf = memory.Append(buf, batch...)
					return nil
				},
				close: func() error {
					if ctx.failed.Load() {
						return out.close()
					}
					if err := guard(func() error {
						if normKey != nil {
							shuffle.SortByNormKey(buf, normKey)
						} else {
							sort.SliceStable(buf, func(i, j int) bool { return less(buf[i], buf[j]) })
						}
						return nil
					}); err != nil {
						return endFailed(ctx, out, err)
					}
					return flushAndClose(ctx, out, buf)
				},
			}
		}
		return d.produce(ctx, wrapped)
	}
	return ds
}

// PartitionCustom repartitions records with an explicit partitioner over
// the key extracted by keyFn — partitionCustom in the paper's Tera Sort.
func PartitionCustom[T any, K comparable](d *DataSet[T], part core.Partitioner[K], keyFn func(T) K) *DataSet[T] {
	return rebalanceExchange(d, "Partition", core.OpPartition, part.NumPartitions(),
		func(v T) int { return part.Partition(keyFn(v)) })
}
