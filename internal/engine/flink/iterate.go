package flink

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/serde"
)

// IterateBulk is Flink's bulk iteration operator: the step dataflow is
// scheduled once and the data is fed back from its tail to its head for
// `iters` supersteps. State (the partitioned intermediate result) stays
// resident between supersteps; no per-iteration task scheduling happens —
// the contrast with Spark's loop unrolling that the paper measures with
// K-Means.
func IterateBulk[T any](d *DataSet[T], iters int, step func(*DataSet[T]) *DataSet[T]) *DataSet[T] {
	e := d.env
	ds := &DataSet[T]{
		env:         e,
		id:          int(e.nextID.Add(1)),
		chain:       []string{fmt.Sprintf("BulkIteration(%d)", iters)},
		kind:        core.OpBulkIteration,
		parallelism: d.parallelism,
		parents:     []planParent{{ds: d, exchange: true}},
	}
	ds.produce = func(ctx *jobCtx, sinks []partSink[T]) error {
		// One coordinator task drives the cyclic dataflow; supersteps run
		// the step graph in place with runLocal (no new scheduling waves).
		ctx.addTask(0, func() error {
			parts, err := runLocal(d)
			if err != nil {
				return err
			}
			for i := 0; i < iters; i++ {
				cur := sourceFromParts(e, "BulkPartialSolution", parts)
				next := step(cur)
				parts, err = runLocal(next)
				if err != nil {
					return err
				}
			}
			return pushParts(parts, sinks)
		})
		return nil
	}
	return ds
}

// IterateDelta is Flink's delta iteration: a solution set held in managed
// memory (it cannot spill — exhausting the pool kills the job, the paper's
// Table VII failure) plus a shrinking workset. step derives (delta,
// nextWorkset) from the current workset with read access to the solution
// set; the iteration ends when the workset empties or after maxIter
// supersteps. The returned DataSet is the final solution set.
func IterateDelta[K comparable, V any](solution *DataSet[core.Pair[K, V]],
	workset *DataSet[core.Pair[K, V]], maxIter int,
	step func(ws *DataSet[core.Pair[K, V]], lookup func(K) (V, bool)) (delta, next *DataSet[core.Pair[K, V]])) *DataSet[core.Pair[K, V]] {

	e := solution.env
	ds := &DataSet[core.Pair[K, V]]{
		env:         e,
		id:          int(e.nextID.Add(1)),
		chain:       []string{fmt.Sprintf("DeltaIteration(%d)", maxIter)},
		kind:        core.OpDeltaIteration,
		parallelism: solution.parallelism,
		parents: []planParent{
			{ds: solution, exchange: true},
			{ds: workset, exchange: true},
		},
	}
	ds.produce = func(ctx *jobCtx, sinks []partSink[core.Pair[K, V]]) error {
		ctx.addTask(0, func() error {
			sol, err := newSolutionSet[K, V](e, solution.parallelism)
			if err != nil {
				return err
			}
			defer sol.release()
			initParts, err := runLocal(solution)
			if err != nil {
				return err
			}
			for _, part := range initParts {
				for _, kv := range part {
					if err := sol.put(kv.Key, kv.Value); err != nil {
						return err
					}
				}
			}
			wsParts, err := runLocal(workset)
			if err != nil {
				return err
			}
			for it := 0; it < maxIter && countRecords(wsParts) > 0; it++ {
				ws := sourceFromParts(e, "Workset", wsParts)
				deltaDS, nextDS := step(ws, sol.get)
				// Flink semantics: delta and next workset are both computed
				// against the superstep's solution-set snapshot; updates
				// become visible in the NEXT superstep. Materialize both
				// before applying the delta — and when step returns the
				// same dataflow for both roles, evaluate it only once.
				deltaParts, err := runLocal(deltaDS)
				if err != nil {
					return err
				}
				if nextDS == deltaDS {
					wsParts = deltaParts
				} else {
					wsParts, err = runLocal(nextDS)
					if err != nil {
						return err
					}
				}
				// Apply the delta between supersteps (no step tasks are
				// running, so no lock is needed).
				for _, part := range deltaParts {
					for _, kv := range part {
						if err := sol.put(kv.Key, kv.Value); err != nil {
							return err
						}
					}
				}
			}
			return pushParts(sol.partitions(), sinks)
		})
		return nil
	}
	return ds
}

// solutionSet is the delta iteration's keyed state: partitioned hash maps
// charged against managed memory with MustAcquire (no spill path in Flink
// 0.10, as the paper's large-graph failures show).
type solutionSet[K comparable, V any] struct {
	env      *Env
	parts    []map[K]V
	segments []int
}

func newSolutionSet[K comparable, V any](e *Env, parallelism int) (*solutionSet[K, V], error) {
	if parallelism <= 0 {
		parallelism = 1
	}
	s := &solutionSet[K, V]{
		env:      e,
		parts:    make([]map[K]V, parallelism),
		segments: make([]int, parallelism),
	}
	for i := range s.parts {
		s.parts[i] = make(map[K]V)
	}
	return s, nil
}

func (s *solutionSet[K, V]) partOf(k K) int {
	return int(core.HashKey(k) % uint64(len(s.parts)))
}

// put inserts or updates; new keys consume managed memory on the
// partition's node and fail the job when the pool is exhausted.
func (s *solutionSet[K, V]) put(k K, v V) error {
	p := s.partOf(k)
	m := s.parts[p]
	if _, ok := m[k]; !ok && len(m) > 0 && len(m)%keysPerSegment == 0 {
		node := s.env.nodeOf(p)
		if err := s.env.managed[node].MustAcquire(1, "DeltaIteration solution set"); err != nil {
			return err
		}
		s.segments[p]++
	}
	m[k] = v
	return nil
}

// get reads the current solution value.
func (s *solutionSet[K, V]) get(k K) (V, bool) {
	v, ok := s.parts[s.partOf(k)][k]
	return v, ok
}

// partitions snapshots the solution set as pair partitions.
func (s *solutionSet[K, V]) partitions() [][]core.Pair[K, V] {
	out := make([][]core.Pair[K, V], len(s.parts))
	for i, m := range s.parts {
		part := make([]core.Pair[K, V], 0, len(m))
		for k, v := range m {
			part = append(part, core.KV(k, v))
		}
		out[i] = part
	}
	return out
}

// release returns the acquired segments.
func (s *solutionSet[K, V]) release() {
	for p, n := range s.segments {
		if n > 0 {
			s.env.managed[s.env.nodeOf(p)].Release(n)
			s.segments[p] = 0
		}
	}
}

// sourceFromParts exposes in-memory partitions as a DataSet — the feedback
// edge of the cyclic dataflow.
func sourceFromParts[T any](e *Env, label string, parts [][]T) *DataSet[T] {
	return newSource(e, label, len(parts), nil, func(p int, emit func([]T) error) error {
		if len(parts[p]) == 0 {
			return nil
		}
		return emit(parts[p])
	})
}

// pushParts feeds materialized partitions into job sinks, rebalancing if
// the partition counts differ.
func pushParts[T any](parts [][]T, sinks []partSink[T]) error {
	for i := range sinks {
		var merged []T
		for q := i; q < len(parts); q += len(sinks) {
			merged = append(merged, parts[q]...)
		}
		if len(merged) > 0 {
			if err := sinks[i].push(merged); err != nil {
				return err
			}
		}
		if err := sinks[i].close(); err != nil {
			return err
		}
	}
	return nil
}

func countRecords[T any](parts [][]T) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// broadcastValue materializes a small DataSet once per job and shares it
// across tasks — withBroadcastSet in the paper's K-Means plan.
type broadcastValue[B any] struct {
	once sync.Once
	data []B
	err  error
}

// MapWithBroadcast maps f over d with the fully materialized broadcast
// set as second argument.
func MapWithBroadcast[T, U, B any](d *DataSet[T], bc *DataSet[B], f func(T, []B) U) *DataSet[U] {
	bv := &broadcastValue[B]{}
	e := d.env
	ds := chainOp(d, "Map(withBroadcastSet)", core.OpMap, func(in []T, emit func([]U) error) error {
		bv.once.Do(func() {
			parts, err := runLocal(bc)
			if err != nil {
				bv.err = err
				return
			}
			for _, p := range parts {
				bv.data = append(bv.data, p...)
			}
			// Broadcast traffic is the set's real serialized size under the
			// engine's TypeInfo codec — measured, not the old ×16 estimate.
			// It ships from the driver to the task nodes, so it counts as a
			// remote read (keeps ShuffleBytesRead = Local + Remote).
			codec := serde.Of[B](e.style)
			e.metrics.CodecFallbacks.Add(int64(codec.Fallbacks))
			enc := serde.EncodeAll(codec, nil, bv.data)
			e.metrics.AddShuffleRead(int64(len(enc)), false)
		})
		if bv.err != nil {
			return bv.err
		}
		out := make([]U, len(in))
		for i, v := range in {
			out[i] = f(v, bv.data)
		}
		return emit(out)
	})
	ds.parents = append(ds.parents, planParent{ds: bc, exchange: true})
	return ds
}
