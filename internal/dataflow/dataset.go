package dataflow

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine/flink"
	"repro/internal/engine/spark"
)

// Dataset is a typed, lazily evaluated distributed collection in the
// engine-neutral plan. Transformations only grow the logical DAG; the
// first action lowers it onto the session's engine and executes the
// engine's physical plan. Like the engines' own APIs, transformations are
// free functions because Go methods cannot introduce type parameters.
type Dataset[T any] struct {
	s    *Session
	node *Node
	// lower builds the engine representation: *spark.RDD[T],
	// *flink.DataSet[T] or *mrFrag[T] depending on the engine kind.
	lower func() (any, error)
	// fuse, when non-nil, is the narrow-operator chain ending at this
	// dataset; lowering collapses it into one physical operator (see
	// fuse.go).
	fuse *fchain
}

// Session returns the owning session.
func (d *Dataset[T]) Session() *Session { return d.s }

// Node returns the logical plan node.
func (d *Dataset[T]) Node() *Node { return d.node }

// Cached marks the dataset for persistence on engines that support it:
// Spark's lowering persists the RDD (MEMORY_ONLY); Flink and MapReduce
// have no persistence control — the Section VI-B asymmetry — and ignore
// the hint, re-running the pipeline per action. Set it before the first
// action; it returns the receiver for chaining.
func (d *Dataset[T]) Cached() *Dataset[T] {
	d.node.Cached = true
	return d
}

// repOf returns d's engine representation, lowering on first use and
// memoizing per logical node so shared subgraphs lower exactly once.
func repOf[R any, T any](d *Dataset[T]) (R, error) {
	var zero R
	if v, ok := d.s.reps[d.node.ID]; ok {
		r, ok := v.(R)
		if !ok {
			return zero, fmt.Errorf("dataflow: node %d lowered as %T, want %T", d.node.ID, v, zero)
		}
		return r, nil
	}
	v, err := d.lower()
	if err != nil {
		return zero, err
	}
	d.s.reps[d.node.ID] = v
	r, ok := v.(R)
	if !ok {
		return zero, fmt.Errorf("dataflow: node %d lowered as %T, want %T", d.node.ID, v, zero)
	}
	return r, nil
}

// cacheHint applies the persistence hint where the engine has one.
func cacheHint[T any](n *Node, r *spark.RDD[T]) *spark.RDD[T] {
	if n.Cached {
		return r.Cache()
	}
	return r
}

// --- Sources ------------------------------------------------------------

// TextFile reads a DFS file as lines: Spark's textFile (one task per HDFS
// block), Flink's readTextFile (slot-bounded subtasks pulling splits),
// MapReduce's TextInputFormat. Spark and Flink open the file when the
// dataset is lowered — by its first action, or by PlanOf — so the input must
// exist by then; MapReduce opens it when a job reads it.
func TextFile(s *Session, name string) *Dataset[string] {
	d := &Dataset[string]{s: s, node: s.newNode(core.OpSource, "TextSource")}
	d.lower = func() (any, error) {
		switch s.kind {
		case Spark:
			r, err := spark.TextFile(s.h.(*spark.Context), name)
			if err != nil {
				return nil, err
			}
			return cacheHint(d.node, r), nil
		case Flink:
			return flink.ReadTextFile(s.h.(*flink.Env), name)
		default:
			return textFrag(s, name), nil
		}
	}
	return d
}

// BinaryFile reads fixed-width binary records (the Tera Sort input):
// Spark's binaryRecords, Flink's fixed-record source, MapReduce's
// fixed-record InputFormat. The file is opened as TextFile's is.
func BinaryFile(s *Session, name string, recSize int) *Dataset[[]byte] {
	d := &Dataset[[]byte]{s: s, node: s.newNode(core.OpSource, "BinarySource")}
	d.lower = func() (any, error) {
		switch s.kind {
		case Spark:
			r, err := spark.BinaryRecords(s.h.(*spark.Context), name, recSize)
			if err != nil {
				return nil, err
			}
			return cacheHint(d.node, r), nil
		case Flink:
			return flink.ReadFixedRecords(s.h.(*flink.Env), name, recSize)
		default:
			return binaryFrag(s, name, recSize), nil
		}
	}
	return d
}

// FromSlice distributes an in-memory slice (parallelize / fromCollection /
// slice input). parallelism ≤ 0 uses the engine default.
func FromSlice[T any](s *Session, data []T, parallelism int) *Dataset[T] {
	d := &Dataset[T]{s: s, node: s.newNode(core.OpSource, "Collection")}
	d.lower = func() (any, error) {
		s.driverRecords(len(data)) // the driver hands the slice out once
		switch s.kind {
		case Spark:
			return cacheHint(d.node, spark.Parallelize(s.h.(*spark.Context), data, parallelism)), nil
		case Flink:
			return flink.FromSlice(s.h.(*flink.Env), data, parallelism), nil
		default:
			return sliceFrag(s, data, parallelism), nil
		}
	}
	return d
}

// --- Narrow transformations ---------------------------------------------

// Map applies f to every record. Narrow everywhere: Spark runs it in the
// parent's tasks, Flink chains it into the producing operator, MapReduce
// fuses it into the next job's map phase. Every narrow operator lowers
// through its batch kernel, and consecutive ones fuse into one compiled
// closure (see fuse.go).
func Map[T, U any](d *Dataset[T], f func(T) U) *Dataset[U] {
	return narrow(d, core.OpMap, "Map", func(emit func(*recBatch[U])) func(*recBatch[T]) {
		// Map the live records into per-instance scratch and emit one
		// compacted batch — one call downstream per input batch. sel must
		// clear every time: a downstream filter writes its selection into
		// this same reused batch.
		ob := &recBatch[U]{}
		return func(b *recBatch[T]) {
			ob.recs = ob.recs[:0]
			ob.sel = nil
			b.forEachLive(func(v T) { ob.recs = append(ob.recs, f(v)) })
			emit(ob)
		}
	})
}

// FlatMap applies f and flattens the results.
func FlatMap[T, U any](d *Dataset[T], f func(T) []U) *Dataset[U] {
	return narrow(d, core.OpFlatMap, "FlatMap", func(emit func(*recBatch[U])) func(*recBatch[T]) {
		// Flatten the live records' expansions into scratch. sel must clear
		// every time: a downstream filter writes its selection into this
		// same reused batch.
		ob := &recBatch[U]{}
		return func(b *recBatch[T]) {
			ob.recs = ob.recs[:0]
			ob.sel = nil
			b.forEachLive(func(v T) { ob.recs = append(ob.recs, f(v)...) })
			emit(ob)
		}
	})
}

// Filter keeps records where f is true.
func Filter[T any](d *Dataset[T], f func(T) bool) *Dataset[T] {
	return narrow(d, core.OpFilter, "Filter", func(emit func(*recBatch[T])) func(*recBatch[T]) {
		// Flip selection entries instead of copying records. An unfiltered
		// batch gets its first selection vector from retained scratch; an
		// already-filtered one narrows sel in place (the write index trails
		// the read index, so the rewrite is safe).
		var scratch []int32
		return func(b *recBatch[T]) {
			if b.sel == nil {
				if scratch == nil {
					// Must be non-nil even when everything is rejected: a
					// nil selection means "all live" downstream.
					scratch = make([]int32, 0, len(b.recs))
				}
				sel := scratch[:0]
				for i, v := range b.recs {
					if f(v) {
						sel = append(sel, int32(i))
					}
				}
				scratch = sel
				b.sel = sel
			} else {
				keep := b.sel[:0]
				for _, i := range b.sel {
					if f(b.recs[i]) {
						keep = append(keep, i)
					}
				}
				b.sel = keep
			}
			emit(b)
		}
	})
}
