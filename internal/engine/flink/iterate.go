package flink

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/serde"
)

// iterScope is one run of an iteration. The run's feedback source — the
// bulk iteration's BulkPartialSolution, the delta iteration's Workset —
// carries it, and so does every DataSet built from a scoped input: that is
// the iteration's dynamic path. A DataSet without a scope is on the static
// path, loop-invariant — Flink's optimizer rule, read off the plan with no
// annotation.
//
// The scope also holds what the run caches on its static path: the build
// tables of the joins whose build side is static (see Join). step runs once
// per superstep and builds a new dataflow each time, so a cached join is
// known by its position among the cached joins of its superstep; the slot
// records the static DataSet and the partition count it was built for, and
// a later superstep whose join at that position differs fails instead of
// probing another join's tables. The scope lives in the iteration's
// coordinator task: its tables go when the run ends or fails, and another
// job over the same iteration builds them again (Flink keeps nothing across
// jobs).
type iterScope struct {
	// outer is the last DataSet id built before the run's first superstep:
	// a static input built later was built by step, anew each superstep, so
	// it has no identity to cache it under.
	outer int

	mu        sync.Mutex
	superstep int
	next      int // cached joins the current superstep has reached
	joins     []*joinSlot
}

// joinSlot is one cached join of an iteration run.
type joinSlot struct {
	static, parts int
	tables        any // []*joinTable[K, B], one per consumer partition
}

func newIterScope(e *Env) *iterScope {
	return &iterScope{outer: int(e.nextID.Load())}
}

// cachedJoin returns the slot of the current superstep's next cached join,
// which builds over DataSet static in q partitions; isNew when this
// superstep is the first to reach it and must fill it.
func (sc *iterScope) cachedJoin(static, q int) (slot *joinSlot, isNew bool, err error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	n := sc.next
	sc.next++
	if n < len(sc.joins) {
		s := sc.joins[n]
		if s.static != static || s.parts != q {
			return nil, false, fmt.Errorf("flink: superstep %d changed the iteration's plan: cached join %d was built over DataSet %d in %d partitions, now joins DataSet %d in %d",
				sc.superstep, n, s.static, s.parts, static, q)
		}
		return s, false, nil
	}
	if sc.superstep > 1 {
		return nil, false, fmt.Errorf("flink: superstep %d changed the iteration's plan: it has a cached join %d the first superstep did not have",
			sc.superstep, n)
	}
	s := &joinSlot{static: static, parts: q}
	sc.joins = append(sc.joins, s)
	return s, true, nil
}

// feedbackSource begins a superstep of sc's run and exposes the fed-back
// partitions as the step's input: the head of the cyclic dataflow, and of
// its dynamic path.
func feedbackSource[T any](e *Env, sc *iterScope, label string, parts [][]T) *DataSet[T] {
	sc.mu.Lock()
	sc.superstep++
	sc.next = 0
	sc.mu.Unlock()
	src := newSource(e, label, len(parts), nil, func(p int, emit func([]T) error) error {
		if len(parts[p]) == 0 {
			return nil
		}
		return emit(parts[p])
	})
	src.scope = sc
	return src
}

// IterateBulk is Flink's bulk iteration operator: the step dataflow is
// scheduled once and the data is fed back from its tail to its head for
// `iters` supersteps. State (the partitioned intermediate result) stays
// resident between supersteps; no per-iteration task scheduling happens —
// the contrast with Spark's loop unrolling that the paper measures with
// K-Means. A join in the step with a static input builds that input once
// per run (see iterScope).
func IterateBulk[T any](d *DataSet[T], iters int, step func(*DataSet[T]) *DataSet[T]) *DataSet[T] {
	e := d.env
	ds := newDataSet[T](e, []string{fmt.Sprintf("BulkIteration(%d)", iters)}, core.OpBulkIteration,
		d.parallelism, nil, planParent{ds: d, exchange: true})
	ds.produce = func(ctx *jobCtx, sinks []partSink[T]) error {
		// One coordinator task drives the cyclic dataflow; supersteps run
		// the step graph in place with runLocal (no new scheduling waves).
		ctx.addTask(0, func() error {
			var parts [][]T
			err := guard(func() (err error) {
				if parts, err = runLocal(d); err != nil {
					return err
				}
				sc := newIterScope(e)
				for i := 0; i < iters; i++ {
					cur := feedbackSource(e, sc, "BulkPartialSolution", parts)
					if parts, err = runLocal(step(cur)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return failAll(ctx, sinks, err)
			}
			return pushParts(ctx, parts, sinks)
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
// supersteps. The returned DataSet is the final solution set. When solution
// and workset are one DataSet it is evaluated once; a join in the step with
// a static input builds that input once per run (see iterScope).
func IterateDelta[K comparable, V any](solution *DataSet[core.Pair[K, V]],
	workset *DataSet[core.Pair[K, V]], maxIter int,
	step func(ws *DataSet[core.Pair[K, V]], lookup func(K) (V, bool)) (delta, next *DataSet[core.Pair[K, V]])) *DataSet[core.Pair[K, V]] {

	e := solution.env
	ds := newDataSet[core.Pair[K, V]](e, []string{fmt.Sprintf("DeltaIteration(%d)", maxIter)}, core.OpDeltaIteration,
		solution.parallelism, nil, planParent{ds: solution, exchange: true}, planParent{ds: workset, exchange: true})
	ds.produce = func(ctx *jobCtx, sinks []partSink[core.Pair[K, V]]) error {
		ctx.addTask(0, func() error {
			var final [][]core.Pair[K, V]
			err := guard(func() error {
				sol := newSolutionSet[K, V](e, solution.parallelism)
				// Released however the run ends: a failed superstep, a
				// panicking user function, or the last superstep.
				defer sol.release()
				if err := deltaIterate(e, sol, solution, workset, maxIter, step); err != nil {
					return err
				}
				final = sol.partitions()
				return nil
			})
			if err != nil {
				return failAll(ctx, sinks, err)
			}
			return pushParts(ctx, final, sinks)
		})
		return nil
	}
	return ds
}

// deltaIterate runs the supersteps of one delta iteration into sol.
func deltaIterate[K comparable, V any](e *Env, sol *solutionSet[K, V],
	solution, workset *DataSet[core.Pair[K, V]], maxIter int,
	step func(ws *DataSet[core.Pair[K, V]], lookup func(K) (V, bool)) (delta, next *DataSet[core.Pair[K, V]])) error {
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
	wsParts := initParts
	if workset != solution {
		if wsParts, err = runLocal(workset); err != nil {
			return err
		}
	}
	sc := newIterScope(e)
	for it := 0; it < maxIter && countRecords(wsParts) > 0; it++ {
		ws := feedbackSource(e, sc, "Workset", wsParts)
		deltaDS, nextDS := step(ws, sol.get)
		// Flink semantics: delta and next workset are both computed
		// against the superstep's solution-set snapshot; updates become
		// visible in the NEXT superstep. Materialize both before applying
		// the delta — and when step returns the same dataflow for both
		// roles, evaluate it only once.
		deltaParts, err := runLocal(deltaDS)
		if err != nil {
			return err
		}
		if nextDS == deltaDS {
			wsParts = deltaParts
		} else if wsParts, err = runLocal(nextDS); err != nil {
			return err
		}
		// Apply the delta between supersteps (no step tasks are running, so
		// no lock is needed).
		for _, part := range deltaParts {
			for _, kv := range part {
				if err := sol.put(kv.Key, kv.Value); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// failAll ends every sink of a task that fails before pushing anything,
// and returns err.
func failAll[T any](ctx *jobCtx, sinks []partSink[T], err error) error {
	for _, s := range sinks {
		endFailed(ctx, s, err)
	}
	return err
}

// solutionSet is the delta iteration's keyed state: partitioned hash maps
// charged against managed memory with MustAcquire (no spill path in Flink
// 0.10, as the paper's large-graph failures show).
type solutionSet[K comparable, V any] struct {
	env      *Env
	parts    []map[K]V
	segments []int
}

func newSolutionSet[K comparable, V any](e *Env, parallelism int) *solutionSet[K, V] {
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
	return s
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

// pushParts feeds materialized partitions into job sinks, rebalancing if
// the partition counts differ, and closes every sink — after a failed push
// too, so an exchange behind them still ends.
func pushParts[T any](ctx *jobCtx, parts [][]T, sinks []partSink[T]) error {
	var first error
	for i := range sinks {
		var merged []T
		if i < len(parts) {
			merged = parts[i] // the coordinator's own copy: appending is fine
		}
		for q := i + len(sinks); q < len(parts); q += len(sinks) {
			merged = append(merged, parts[q]...)
		}
		if err := flushAndClose(ctx, sinks[i], merged); err != nil && first == nil {
			first = err
		}
	}
	return first
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
	ds.scope = scopeOf(ds.parents) // a dynamic broadcast set makes the map dynamic
	return ds
}
