package spark

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/serde"
	"repro/internal/shuffle"
)

// MapToPair turns records into key-value pairs (Spark's mapToPair).
func MapToPair[T any, K comparable, V any](r *RDD[T], f func(T) core.Pair[K, V]) *RDD[core.Pair[K, V]] {
	out := Map(r, f)
	out.name = "MapToPair"
	out.kind = core.OpMapToPair
	return out
}

// Keys projects the keys of a pair RDD.
func Keys[K comparable, V any](r *RDD[core.Pair[K, V]]) *RDD[K] {
	return Map(r, func(p core.Pair[K, V]) K { return p.Key })
}

// Values projects the values of a pair RDD.
func Values[K comparable, V any](r *RDD[core.Pair[K, V]]) *RDD[V] {
	return Map(r, func(p core.Pair[K, V]) V { return p.Value })
}

// ReduceByKey merges values per key with a map-side combine before the
// shuffle — the aggregation component the paper evaluates with Word Count.
// numParts ≤ 0 uses spark.default.parallelism, which the paper shows is a
// decision with a ~10% performance impact.
func ReduceByKey[K comparable, V any](r *RDD[core.Pair[K, V]], f func(V, V) V, numParts int) *RDD[core.Pair[K, V]] {
	return CombineByKey(r, "ReduceByKey",
		func(v V) V { return v }, f, f, numParts, true)
}

// GroupByKey collects all values per key without map-side combine.
func GroupByKey[K comparable, V any](r *RDD[core.Pair[K, V]], numParts int) *RDD[core.Pair[K, []V]] {
	out := CombineByKey(r, "GroupByKey",
		func(v V) []V { return []V{v} },
		func(c []V, v V) []V { return append(c, v) },
		func(a, b []V) []V { return append(a, b...) },
		numParts, false)
	return out
}

// CombineByKey is the generic keyed aggregation Spark builds reduceByKey
// and groupByKey on: createCombiner starts an accumulator, mergeValue adds
// a record map-side (only when mapSideCombine), and mergeCombiners joins
// accumulators reduce-side.
func CombineByKey[K comparable, V, C any](r *RDD[core.Pair[K, V]], name string,
	createCombiner func(V) C, mergeValue func(C, V) C, mergeCombiners func(C, C) C,
	numParts int, mapSideCombine bool) *RDD[core.Pair[K, C]] {
	if numParts <= 0 {
		numParts = r.ctx.curParallelism()
	}
	part := core.NewHashPartitioner[K](numParts)
	return shuffledRDD(r, name, core.OpReduceByKey, part, createCombiner, mergeValue, mergeCombiners, mapSideCombine, false, nil, nil)
}

// PartitionBy redistributes pairs with an explicit partitioner, no
// combining — the fine-grained partition control the paper credits Spark
// with (Section II-C).
func PartitionBy[K comparable, V any](r *RDD[core.Pair[K, V]], part core.Partitioner[K]) *RDD[core.Pair[K, V]] {
	// keepAll: repartitioning preserves every record, duplicates included.
	return shuffledRDD(r, "PartitionBy", core.OpPartition, part,
		func(v V) V { return v },
		func(c V, v V) V { return v },
		func(a, b V) V { return b },
		false, true, nil, nil)
}

// RepartitionAndSortWithinPartitions is the Tera Sort primitive: shuffle by
// the partitioner, then sort each reduce partition by key — Spark performs
// the sort during the shuffle read.
func RepartitionAndSortWithinPartitions[K comparable, V any](r *RDD[core.Pair[K, V]],
	part core.Partitioner[K], less func(a, b K) bool) *RDD[core.Pair[K, V]] {
	return RepartitionAndSortNormalized(r, part, less, nil)
}

// RepartitionAndSortNormalized is RepartitionAndSortWithinPartitions with an
// optional normalized-key writer: when normKey is non-nil the map-side sort
// compares packed key bytes with memcmp instead of calling less per
// comparison (the tungsten UnsafeShuffleWriter trick). normKey MUST be total
// and order exactly as less does — serde.NormKeyerFor builds conforming
// writers for natural-ordered scalar keys.
func RepartitionAndSortNormalized[K comparable, V any](r *RDD[core.Pair[K, V]],
	part core.Partitioner[K], less func(a, b K) bool,
	normKey func(dst []byte, k K) []byte) *RDD[core.Pair[K, V]] {
	return shuffledRDD(r, "RepartitionAndSortWithinPartitions", core.OpPartition, part,
		func(v V) V { return v },
		func(c V, v V) V { return v },
		func(a, b V) V { return b },
		false, true, less, normKey)
}

// shuffledRDD builds the wide dependency: map tasks write partitioned,
// serialized, optionally combined buckets; reduce tasks fetch and merge.
// When keepAll is true (sort shuffles) duplicate keys are all kept and the
// output is sorted with less.
func shuffledRDD[K comparable, V, C any](r *RDD[core.Pair[K, V]], name string, kind core.OpKind,
	part core.Partitioner[K],
	createCombiner func(V) C, mergeValue func(C, V) C, mergeCombiners func(C, C) C,
	mapSideCombine, keepAll bool, less func(a, b K) bool,
	normKey func(dst []byte, k K) []byte) *RDD[core.Pair[K, C]] {

	ctx := r.ctx
	numParts := part.NumPartitions()
	pairCodec := serde.OfPair[K, C](ctx.style)
	ctx.metrics.CodecFallbacks.Add(int64(pairCodec.Fallbacks))

	sd := &shuffleDep{
		id:       int(ctx.nextShuffle.Add(1)),
		numMaps:  r.numParts,
		numParts: numParts,
		parent:   r,
	}
	sd.write = func(mapPart int, tc *taskContext) error {
		// One writer per attempt: the parent streams into it, so an attempt
		// that fails upstream leaves it half fed, and a retry starts clean.
		w := newMapWriter(tc, sd, part, pairCodec, mapSideCombine, createCombiner, mergeValue, mergeCombiners, less, normKey)
		err := r.forEachBatch(mapPart, tc, func(_ int, in []core.Pair[K, V]) error { return w.addBatch(in) })
		if err == nil {
			err = w.close(mapPart)
		}
		if err != nil {
			w.abort()
		}
		return err
	}

	out := newRDD[core.Pair[K, C]](ctx, name, kind, numParts, []dep{{parent: r, shuffle: sd}}, nil)
	out.compute = func(p int, tc *taskContext) ([]core.Pair[K, C], error) {
		blocks, err := ctx.shuffles.fetch(sd.id, p, tc)
		if err != nil {
			return nil, err
		}
		segs, err := shuffle.DecodeBlocks(sd.settings(ctx), pairCodec, blocks)
		for i := range blocks {
			blocks[i].Release() // borrows no-op; remote copies recycle
		}
		if err != nil {
			return nil, fmt.Errorf("spark: shuffle decode: %w", err)
		}
		if keepAll {
			if less == nil {
				return shuffle.Concat(segs), nil
			}
			lessPair := func(a, b core.Pair[K, C]) bool { return less(a.Key, b.Key) }
			if sd.settings(ctx).Kind == shuffle.Sort {
				// Sort shuffles deliver key-sorted map outputs: the read
				// side is a parallel k-way merge over the runtime instead
				// of a full re-sort.
				return shuffle.ParallelMerge(ctx.rt, tc.node, segs, lessPair), nil
			}
			all := shuffle.Concat(segs)
			sort.SliceStable(all, func(i, j int) bool { return lessPair(all[i], all[j]) })
			return all, nil
		}
		return shuffle.FoldFirstSeen(segs, mergeCombiners), nil
	}
	return out
}

// Joined is the result element of an inner join.
type Joined[V, W any] struct {
	Left  V
	Right W
}

// Join inner-joins two pair RDDs on their keys over numParts partitions.
func Join[K comparable, V, W any](left *RDD[core.Pair[K, V]], right *RDD[core.Pair[K, W]],
	numParts int) *RDD[core.Pair[K, Joined[V, W]]] {
	if numParts <= 0 {
		numParts = left.ctx.curParallelism()
	}
	lg := GroupByKey(left, numParts)
	rg := GroupByKey(right, numParts)
	return joinGrouped(lg, rg)
}

// joinGrouped zips two co-partitioned grouped RDDs. Both sides were
// shuffled with the same hash partitioner and partition count, so equal
// keys are in equal partitions.
func joinGrouped[K comparable, V, W any](lg *RDD[core.Pair[K, []V]], rg *RDD[core.Pair[K, []W]]) *RDD[core.Pair[K, Joined[V, W]]] {
	out := newRDD[core.Pair[K, Joined[V, W]]](lg.ctx, "Join", core.OpJoin, lg.numParts,
		[]dep{{parent: lg}, {parent: rg}}, nil)
	out.compute = func(p int, tc *taskContext) ([]core.Pair[K, Joined[V, W]], error) {
		ls, err := lg.iterator(p, tc)
		if err != nil {
			return nil, err
		}
		rs, err := rg.iterator(p, tc)
		if err != nil {
			return nil, err
		}
		rmap := make(map[K][]W, len(rs))
		for _, r := range rs {
			rmap[r.Key] = r.Value
		}
		var recs []core.Pair[K, Joined[V, W]]
		for _, l := range ls {
			for _, lv := range l.Value {
				for _, rv := range rmap[l.Key] {
					recs = append(recs, core.KV(l.Key, Joined[V, W]{Left: lv, Right: rv}))
				}
			}
		}
		return recs, nil
	}
	return out
}

// CollectAsMap gathers a pair RDD into a driver-side map, charging the
// result against the driver heap's unmanaged region. A result that does
// not fit kills the job with an out-of-memory error, as Spark's driver
// does — the paper's K-Means uses this action every iteration.
func CollectAsMap[K comparable, V any](r *RDD[core.Pair[K, V]]) (map[K]V, error) {
	pairs, err := Collect(r)
	if err != nil {
		return nil, err
	}
	codec := serde.OfPair[K, V](r.ctx.style)
	r.ctx.metrics.CodecFallbacks.Add(int64(codec.Fallbacks))
	var sample int64
	n := len(pairs)
	if n > 0 {
		probe := pairs
		if n > 32 {
			probe = pairs[:32]
		}
		enc := serde.EncodeAll(codec, nil, probe)
		sample = int64(len(enc)) * int64(n) / int64(len(probe))
	}
	driver := r.ctx.heapFor(0)
	if err := driver.AllocUser(sample * 2); err != nil { // ×2: boxing overhead of a JVM HashMap
		return nil, fmt.Errorf("spark: collectAsMap: %w", err)
	}
	m := make(map[K]V, n)
	for _, p := range pairs {
		m[p.Key] = p.Value
	}
	return m, nil
}
