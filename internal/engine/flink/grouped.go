package flink

import (
	"repro/internal/core"
	"repro/internal/shuffle"
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
	return &Grouped[K, T]{ds: d, key: keyFn, parallelism: d.env.parallelism}
}

// WithParallelism sets the reduce-side parallelism.
func (g *Grouped[K, T]) WithParallelism(p int) *Grouped[K, T] {
	if p > 0 {
		g.parallelism = p
	}
	return g
}

// keyed describes the grouping key to the exchange.
func (g *Grouped[K, T]) keyed() *keyed[T] {
	key := g.key
	return &keyed[T]{
		hash: func(v T) uint64 { return core.HashKey(key(v)) },
		key:  shuffle.KeyBy(key),
	}
}

// route sends a record to the consumer its key hashes to.
func (g *Grouped[K, T]) route(key *keyed[T]) func(T) int {
	q := uint64(g.parallelism)
	return func(v T) int { return int(key.hash(v) % q) }
}

// Reduce merges records per key with f. The optimizer chains a GroupCombine
// onto the producer (the paper's DataSource->FlatMap->GroupCombine), and the
// reduce side folds the combined records as they stream in. Both are the
// shuffle core's combine table: the GroupCombine is the table of the writer
// each producing subtask already owns (see newExchange), the GroupReduce a
// shuffle.Fold per consumer — the table spark and mapreduce combine through.
//
// That makes flink's default combiner a memory-bounded hash fold: entries
// are Go records found by key hash, and flink.combine.strategy only decides
// whether the table is bounded by the managed budget ("sort", the default)
// or unbounded ("hash"). The combiner the paper describes — records kept in
// binary form in managed segments, sorted on normalized-key prefixes when
// the budget fills, adjacent equal keys folded in one pass — is ROADMAP
// item 4's SortFold, still open.
func Reduce[K comparable, T any](g *Grouped[K, T], f func(T, T) T) *DataSet[T] {
	key := g.keyed()
	return newExchange[T, T](groupCombine(g.ds), "GroupReduce", core.OpGroupReduce, g.parallelism,
		g.route(key), key, f,
		func(part int, out partSink[T]) recordConsumer[T] {
			fold := shuffle.NewFold(key.key, f)
			return recordConsumer[T]{
				accept: func(batch []T) error {
					fold.Add(batch)
					return nil
				},
				finish: func() error {
					if vals := fold.Drain(); len(vals) > 0 {
						return out.push(vals)
					}
					return nil
				},
			}
		})
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
	key, kd := g.key, g.keyed()
	return newExchange[T, U](g.ds, "GroupReduce", core.OpGroupReduce, g.parallelism,
		g.route(kd), kd, nil,
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

// groupCombine is the GroupCombine the optimizer chains onto a combinable
// reduction's producer, as a plan node only: it names the operator in the
// producer's chain (Table I, planviz, the DC=…->GroupCombine timeline labels)
// and produces exactly what its parent does. The combining itself happens in
// the shuffle writer the exchange gives every producing subtask.
func groupCombine[T any](parent *DataSet[T]) *DataSet[T] {
	ds := newDataSet[T](parent.env, append(append([]string{}, parent.chain...), "GroupCombine"),
		core.OpGroupCombine, parent.parallelism, parent.pref, planParent{ds: parent})
	ds.produce = parent.produce
	return ds
}
