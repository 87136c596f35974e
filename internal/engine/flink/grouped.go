package flink

import (
	"sort"

	"repro/internal/core"
	"repro/internal/memory"
)

// Grouped is a keyed view of a DataSet, produced by GroupBy and consumed
// by Sum/Reduce/GroupReduce — Flink's groupBy→aggregate pattern.
type Grouped[K comparable, T any] struct {
	ds          *DataSet[T]
	key         func(T) K
	parallelism int
}

// GroupBy keys the DataSet with keyFn. The downstream parallelism defaults
// to the environment's; WithParallelism overrides it.
func GroupBy[T any, K comparable](d *DataSet[T], keyFn func(T) K) *Grouped[K, T] {
	return &Grouped[K, T]{ds: d, key: keyFn, parallelism: d.env.curParallelism()}
}

// WithParallelism sets the reduce-side parallelism.
func (g *Grouped[K, T]) WithParallelism(p int) *Grouped[K, T] {
	if p > 0 {
		g.parallelism = p
	}
	return g
}

// Reduce merges records per key with f. The optimizer inserts a
// GroupCombine ahead of the exchange (the paper's
// DataSource->FlatMap->GroupCombine chain), and the reduce side merges
// combined records as they stream in.
func Reduce[K comparable, T any](g *Grouped[K, T], f func(T, T) T) *DataSet[T] {
	combined := combineChain(g.ds, g.key, f)
	key := g.key
	ex := newExchange[T, T](combined, "GroupReduce", core.OpGroupReduce, g.parallelism,
		func(v T) int { return int(core.HashKey(key(v)) % uint64(g.parallelism)) },
		keyHashLess(key),
		func(part int, out partSink[T]) recordConsumer[T] {
			node := combined.env.nodeOf(part)
			merger := newSortMerger(combined.env, node, key, f)
			return recordConsumer[T]{
				accept: merger.add,
				finish: func() error {
					defer merger.release()
					if vals := merger.drain(); len(vals) > 0 {
						return out.push(vals)
					}
					return nil
				},
			}
		})
	return ex
}

// Sum reduces pairs by adding their int64 values — the groupBy→sum of the
// paper's Word Count.
func Sum[K comparable](g *Grouped[K, core.Pair[K, int64]]) *DataSet[core.Pair[K, int64]] {
	out := Reduce(g, func(a, b core.Pair[K, int64]) core.Pair[K, int64] {
		return core.KV(a.Key, a.Value+b.Value)
	})
	out.chain = []string{"GroupReduce(Sum)"}
	return out
}

// GroupReduce gathers all records of a key and applies f once per group
// (no combiner — Flink only combines when the function is combinable).
func GroupReduce[K comparable, T, U any](g *Grouped[K, T], f func(K, []T) []U) *DataSet[U] {
	key := g.key
	return newExchange[T, U](g.ds, "GroupReduce", core.OpGroupReduce, g.parallelism,
		func(v T) int { return int(core.HashKey(key(v)) % uint64(g.parallelism)) },
		keyHashLess(key),
		func(part int, out partSink[U]) recordConsumer[T] {
			groups := make(map[K][]T)
			var order []K
			return recordConsumer[T]{
				accept: func(batch []T) error {
					for _, v := range batch {
						k := key(v)
						if _, ok := groups[k]; !ok {
							order = append(order, k)
						}
						groups[k] = append(groups[k], v)
					}
					return nil
				},
				finish: func() error {
					var outRecs []U
					for _, k := range order {
						outRecs = append(outRecs, f(k, groups[k])...)
					}
					if len(outRecs) > 0 {
						return out.push(outRecs)
					}
					return nil
				},
			}
		})
}

// Distinct deduplicates by key, a grouped reduce keeping one witness.
func Distinct[T any, K comparable](d *DataSet[T], keyFn func(T) K) *DataSet[T] {
	out := Reduce(GroupBy(d, keyFn), func(a, _ T) T { return a })
	out.chain = []string{"Distinct"}
	out.kind = core.OpDistinct
	return out
}

// keyHashLess is the record order keyed exchanges hand to the shuffle
// core: sort-strategy runs order by key hash, the same order the engine's
// own sort-based combiner emits (Flink sorts on normalized key prefixes,
// not on user comparators).
func keyHashLess[T any, K comparable](key func(T) K) func(a, b T) bool {
	return func(a, b T) bool { return core.HashKey(key(a)) < core.HashKey(key(b)) }
}

// combineChain inserts the sort-based combiner into the producer task: a
// bounded managed-memory buffer of partial aggregates, sorted and flushed
// downstream whenever the memory budget is exhausted. The flush moments
// are the CPU bursts behind the anti-cyclic CPU/disk pattern of the
// paper's Figure 3. With flink.combine.strategy=hash the buffer is
// unbounded and flushes once at the end — the strategy the paper says
// Flink was investigating.
func combineChain[T any, K comparable](parent *DataSet[T], key func(T) K, f func(T, T) T) *DataSet[T] {
	e := parent.env
	ds := &DataSet[T]{
		env:         e,
		id:          int(e.nextID.Add(1)),
		chain:       append(append([]string{}, parent.chain...), "GroupCombine"),
		kind:        core.OpGroupCombine,
		parallelism: parent.parallelism,
		parents:     []planParent{{ds: parent}},
		pref:        parent.pref,
	}
	ds.produce = func(ctx *jobCtx, sinks []partSink[T]) error {
		wrapped := make([]partSink[T], len(sinks))
		for p := range sinks {
			out := sinks[p]
			node := ctx.place(p, parent.pref)
			comb := newSortCombiner(e, node, key, f)
			wrapped[p] = partSink[T]{
				push: func(batch []T) error {
					for _, v := range batch {
						if flushed := comb.add(v); flushed != nil {
							if err := out.push(flushed); err != nil {
								return err
							}
						}
					}
					return nil
				},
				close: func() error {
					defer comb.release()
					if ctx.failed.Load() {
						return out.close()
					}
					return flushAndClose(ctx, out, comb.drain())
				},
			}
		}
		return parent.produce(ctx, wrapped)
	}
	return ds
}

// keysPerSegment approximates how many partial aggregates fit in one
// 32 KiB managed segment.
const keysPerSegment = 1024

// sortCombiner is the bounded partial-aggregation buffer.
type sortCombiner[K comparable, T any] struct {
	env      *Env
	pool     *memory.Managed
	key      func(T) K
	f        func(T, T) T
	m        map[K]T
	segments int
	sortMode bool
}

func newSortCombiner[K comparable, T any](e *Env, node int, key func(T) K, f func(T, T) T) *sortCombiner[K, T] {
	return &sortCombiner[K, T]{
		env:      e,
		pool:     e.managed[node],
		key:      key,
		f:        f,
		m:        make(map[K]T),
		sortMode: e.combineSort,
	}
}

// add merges one record; a non-nil return is a flushed (sorted) run that
// must be emitted downstream.
func (c *sortCombiner[K, T]) add(v T) []T {
	k := c.key(v)
	if acc, ok := c.m[k]; ok {
		c.m[k] = c.f(acc, v)
		c.env.metrics.CombineInputRecords.Add(1)
		return nil
	}
	c.env.metrics.CombineInputRecords.Add(1)
	if c.sortMode && len(c.m) > 0 && len(c.m)%keysPerSegment == 0 {
		if c.pool.Acquire(1) == 0 {
			// Memory budget exhausted: sort and flush the buffer.
			run := c.drain()
			c.m = make(map[K]T)
			c.env.metrics.SpillCount.Add(1)
			c.env.metrics.SpillBytes.Add(int64(len(run)))
			c.m[k] = v
			return run
		}
		c.segments++
	}
	c.m[k] = v
	return nil
}

// drain returns the current buffer contents sorted by key hash (the
// sort-based combiner emits sorted runs).
func (c *sortCombiner[K, T]) drain() []T {
	if len(c.m) == 0 {
		return nil
	}
	c.env.metrics.CombineOutputRecs.Add(int64(len(c.m)))
	type kv struct {
		h uint64
		v T
	}
	tmp := make([]kv, 0, len(c.m))
	for k, v := range c.m {
		tmp = append(tmp, kv{h: core.HashKey(k), v: v})
	}
	if c.sortMode {
		sort.Slice(tmp, func(i, j int) bool { return tmp[i].h < tmp[j].h })
	}
	out := make([]T, len(tmp))
	for i, e := range tmp {
		out[i] = e.v
	}
	return out
}

// release returns acquired segments to the pool.
func (c *sortCombiner[K, T]) release() {
	if c.segments > 0 {
		c.pool.Release(c.segments)
		c.segments = 0
	}
}

// sortMerger is the reduce-side merge: it accumulates streamed partial
// aggregates and merges equal keys; Flink's sorter would merge sorted
// runs, with spilling allowed.
type sortMerger[K comparable, T any] struct {
	env      *Env
	pool     *memory.Managed
	key      func(T) K
	f        func(T, T) T
	m        map[K]T
	order    []K
	segments int
}

func newSortMerger[K comparable, T any](e *Env, node int, key func(T) K, f func(T, T) T) *sortMerger[K, T] {
	return &sortMerger[K, T]{env: e, pool: e.managed[node], key: key, f: f, m: make(map[K]T)}
}

func (m *sortMerger[K, T]) add(batch []T) error {
	for _, v := range batch {
		k := m.key(v)
		if acc, ok := m.m[k]; ok {
			m.m[k] = m.f(acc, v)
			continue
		}
		if len(m.m) > 0 && len(m.m)%keysPerSegment == 0 {
			// Reduce-side sorter: count memory pressure; Flink spills
			// sorted runs to disk and keeps going.
			if m.pool.Acquire(1) == 0 {
				m.env.metrics.SpillCount.Add(1)
			} else {
				m.segments++
			}
		}
		m.m[k] = v
		m.order = append(m.order, k)
	}
	return nil
}

func (m *sortMerger[K, T]) drain() []T {
	out := make([]T, 0, len(m.m))
	for _, k := range m.order {
		out = append(out, m.m[k])
	}
	return out
}

func (m *sortMerger[K, T]) release() {
	if m.segments > 0 {
		m.pool.Release(m.segments)
		m.segments = 0
	}
}
