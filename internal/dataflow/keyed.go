package dataflow

import (
	"cmp"

	"repro/internal/core"
	"repro/internal/engine/flink"
	"repro/internal/engine/spark"
	"repro/internal/serde"
)

// Keys are constrained to cmp.Ordered (not just comparable) because the
// MapReduce engine is strictly sort-based: its spills, merges and reduce
// grouping all rely on key order, like Hadoop's WritableComparable
// contract. Every Table I workload uses ordered keys.

// MapToPair turns records into key-value pairs: Spark's mapToPair, a plain
// chained map on Flink, part of the fused map phase on MapReduce.
func MapToPair[T any, K cmp.Ordered, V any](d *Dataset[T], f func(T) core.Pair[K, V]) *Dataset[core.Pair[K, V]] {
	out := Map(d, f)
	out.node.Kind = core.OpMapToPair
	out.node.Label = "MapToPair"
	return out
}

// KeyBy pairs every record with the key keyFn extracts, the keyed-view
// entry point (groupBy's first half on Flink).
func KeyBy[T any, K cmp.Ordered](d *Dataset[T], keyFn func(T) K) *Dataset[core.Pair[K, T]] {
	out := Map(d, func(v T) core.Pair[K, T] { return core.KV(keyFn(v), v) })
	out.node.Kind = core.OpMapToPair
	out.node.Label = "KeyBy"
	return out
}

// ReduceByKey merges values per key with f, with a map-side combiner on
// every engine (f is associative by contract): Spark's reduceByKey, Flink's
// groupBy→reduce with the optimizer's GroupCombine chained into the
// producer, MapReduce's Combine+Reduce job. It is the shuffle boundary —
// Spark cuts a stage, Flink inserts a pipelined exchange, MapReduce
// spill-sorts, materializes and sort-merges a full job.
func ReduceByKey[K cmp.Ordered, V any](d *Dataset[core.Pair[K, V]], f func(V, V) V) *Dataset[core.Pair[K, V]] {
	return reduceByKey(d, f, 0)
}

// ReduceByKeyWith is ReduceByKey with an explicit reduce-side parallelism
// (numParts ≤ 0 uses the engine default) — the knob the paper shows is
// worth ~10% on Spark.
func ReduceByKeyWith[K cmp.Ordered, V any](d *Dataset[core.Pair[K, V]], f func(V, V) V, numParts int) *Dataset[core.Pair[K, V]] {
	return reduceByKey(d, f, numParts)
}

func reduceByKey[K cmp.Ordered, V any](d *Dataset[core.Pair[K, V]], f func(V, V) V, numParts int) *Dataset[core.Pair[K, V]] {
	out := &Dataset[core.Pair[K, V]]{s: d.s, node: d.s.newNode(core.OpReduceByKey, "ReduceByKey", d.node)}
	out.lower = func() (any, error) {
		switch d.s.kind {
		case Spark:
			in, err := repOf[*spark.RDD[core.Pair[K, V]]](d)
			if err != nil {
				return nil, err
			}
			return cacheHint(out.node, spark.ReduceByKey(in, f, numParts)), nil
		case Flink:
			in, err := repOf[*flink.DataSet[core.Pair[K, V]]](d)
			if err != nil {
				return nil, err
			}
			grouped := flink.GroupBy(in, func(p core.Pair[K, V]) K { return p.Key }).WithParallelism(numParts)
			return flink.Reduce(grouped, func(a, b core.Pair[K, V]) core.Pair[K, V] {
				return core.KV(a.Key, f(a.Value, b.Value))
			}), nil
		default:
			in, err := repOf[*mrFrag[core.Pair[K, V]]](d)
			if err != nil {
				return nil, err
			}
			return fragReduceByKey(in, f, numParts), nil
		}
	}
	return out
}

// SortByKey yields a total order over the partitioner's ranges: Spark's
// repartitionAndSortWithinPartitions, Flink's partitionCustom→sortPartition,
// MapReduce's range-partitioned identity-reduce job (the original TeraSort
// recipe on all three).
func SortByKey[K cmp.Ordered, V any](d *Dataset[core.Pair[K, V]], part core.Partitioner[K]) *Dataset[core.Pair[K, V]] {
	out := &Dataset[core.Pair[K, V]]{s: d.s, node: d.s.newNode(core.OpPartition, "SortByKey", d.node)}
	out.lower = func() (any, error) {
		switch d.s.kind {
		case Spark:
			in, err := repOf[*spark.RDD[core.Pair[K, V]]](d)
			if err != nil {
				return nil, err
			}
			// Natural key order makes the binary normalized-key sort safe
			// whenever K has one (TeraSort's string keys take this path).
			sorted := spark.RepartitionAndSortNormalized(in, part,
				func(a, b K) bool { return a < b }, serde.NormKeyerFor[K]())
			return cacheHint(out.node, sorted), nil
		case Flink:
			in, err := repOf[*flink.DataSet[core.Pair[K, V]]](d)
			if err != nil {
				return nil, err
			}
			parted := flink.PartitionCustom(in, part, func(p core.Pair[K, V]) K { return p.Key })
			return flink.SortPartitionNormalized(parted,
				func(a, b core.Pair[K, V]) bool { return a.Key < b.Key },
				serde.PairNormKeyer[K, V](serde.NormKeyerFor[K]())), nil
		default:
			in, err := repOf[*mrFrag[core.Pair[K, V]]](d)
			if err != nil {
				return nil, err
			}
			return fragSortByKey(in, part), nil
		}
	}
	return out
}
