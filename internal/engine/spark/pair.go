package spark

import (
	"fmt"
	"reflect"
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

// MapValues applies f to every value and leaves every key where it is —
// Spark's mapValues, with f also seeing the key as in GraphX's
// VertexRDD.mapValues. Since no key moves, the result keeps r's
// partitioner, so a keyed operator after it stays narrow where one after
// Map would shuffle.
func MapValues[K comparable, V, U any](r *RDD[core.Pair[K, V]], f func(K, V) U) *RDD[core.Pair[K, U]] {
	out := narrow(r, "MapValues", core.OpMap, func(in []core.Pair[K, V], _ *taskContext) ([]core.Pair[K, U], error) {
		out := make([]core.Pair[K, U], len(in))
		for i, kv := range in {
			out[i] = core.KV(kv.Key, f(kv.Key, kv.Value))
		}
		return out, nil
	})
	out.partitioner = r.partitioner
	return out
}

// hashPartitioning identifies a *core.HashPartitioner[K] by its partition
// count alone, as Spark's HashPartitioner.equals does; K being part of the
// type keeps hash partitioners over different key types apart.
type hashPartitioning[K comparable] struct{ n int }

// partitionerKey is the identity RDD.partitioner records for part: equal
// for every hash partitioner with the same key type and partition count,
// and part itself for any other partitioner, which therefore equals only
// itself.
func partitionerKey[K comparable](part core.Partitioner[K]) any {
	if h, ok := part.(*core.HashPartitioner[K]); ok {
		return hashPartitioning[K]{n: h.NumPartitions()}
	}
	return part
}

// samePartitioner reports whether two recorded partitioners are equal; an
// unknown (nil) partitioner equals nothing.
func samePartitioner(a, b any) bool {
	return a != nil && reflect.TypeOf(a).Comparable() && a == b
}

// hashPartitioner is a keyed operator's partitioner over numParts
// partitions, spark.default.parallelism when numParts ≤ 0.
func hashPartitioner[K comparable](c *Context, numParts int) *core.HashPartitioner[K] {
	if numParts <= 0 {
		numParts = c.parallelism
	}
	return core.NewHashPartitioner[K](numParts)
}

// partitionedBy reports whether r's keys already sit where part would put
// them.
func partitionedBy[K comparable, V any](r *RDD[core.Pair[K, V]], part core.Partitioner[K]) bool {
	return samePartitioner(r.partitioner, partitionerKey(part))
}

// ReduceByKey merges values per key with a map-side combine before the
// shuffle — the aggregation component the paper evaluates with Word Count.
// numParts ≤ 0 uses spark.default.parallelism, which the paper shows is a
// decision with a ~10% performance impact.
func ReduceByKey[K comparable, V any](r *RDD[core.Pair[K, V]], f func(V, V) V, numParts int) *RDD[core.Pair[K, V]] {
	return CombineByKey(r, "ReduceByKey",
		func(v V) V { return v }, f, f, numParts)
}

// GroupByKey collects all values per key with no map-side combine, as
// Spark's groupByKey: PartitionBy over numParts, then each partition grouped
// in place, keys in first-seen order and values in record order. The groups
// are full slices of one backing array per partition, as GraphX clusters an
// edge partition by source: a fixed number of allocations however many keys.
func GroupByKey[K comparable, V any](r *RDD[core.Pair[K, V]], numParts int) *RDD[core.Pair[K, []V]] {
	in := PartitionBy(r, hashPartitioner[K](r.ctx, numParts))
	out := narrow(in, "GroupByKey", core.OpReduceByKey, func(recs []core.Pair[K, V], _ *taskContext) ([]core.Pair[K, []V], error) {
		keys, group := numberKeys(make(map[K]int32, len(recs)), nil, recs)
		vals := groupValues(group, recs, len(keys))
		out := make([]core.Pair[K, []V], len(keys))
		for g, k := range keys {
			out[g] = core.KV(k, vals[g])
		}
		return out, nil
	})
	out.partitioner = in.partitioner
	return out
}

// CombineByKey is the generic keyed aggregation Spark builds reduceByKey
// on: createCombiner starts an accumulator, mergeValue adds a record to
// one, and mergeCombiners joins accumulators — map-side as records arrive
// and reduce-side. The result is hash-partitioned over numParts.
// When r already has that partitioner every key's records are in one
// partition, and the aggregation runs within partitions with no shuffle
// (Spark's combineByKeyWithClassTag): createCombiner and mergeValue fold
// each partition, keys in first-seen order.
func CombineByKey[K comparable, V, C any](r *RDD[core.Pair[K, V]], name string,
	createCombiner func(V) C, mergeValue func(C, V) C, mergeCombiners func(C, C) C,
	numParts int) *RDD[core.Pair[K, C]] {
	part := hashPartitioner[K](r.ctx, numParts)
	if !partitionedBy(r, part) {
		return shuffledRDD(r, name, core.OpReduceByKey, part, createCombiner, mergeCombiners, nil, nil)
	}
	out := newRDD[core.Pair[K, C]](r.ctx, name, core.OpReduceByKey, r.numParts, []dep{{parent: r}}, nil)
	out.compute = func(p int, tc *taskContext) ([]core.Pair[K, C], error) {
		var acc []core.Pair[K, C]
		index := make(map[K]int)
		err := r.forEachBatch(p, tc, func(_ int, batch []core.Pair[K, V]) error {
			for _, kv := range batch {
				if i, ok := index[kv.Key]; ok {
					acc[i].Value = mergeValue(acc[i].Value, kv.Value)
				} else {
					index[kv.Key] = len(acc)
					acc = append(acc, core.KV(kv.Key, createCombiner(kv.Value)))
				}
			}
			return nil
		})
		return acc, err
	}
	out.partitioner = r.partitioner
	return out
}

// PartitionBy redistributes pairs with an explicit partitioner, no
// combining — the fine-grained partition control the paper credits Spark
// with (Section II-C). An r that already has part is returned as it is.
func PartitionBy[K comparable, V any](r *RDD[core.Pair[K, V]], part core.Partitioner[K]) *RDD[core.Pair[K, V]] {
	if partitionedBy(r, part) {
		return r
	}
	return shuffledRDD(r, "PartitionBy", core.OpPartition, part, func(v V) V { return v }, nil, nil, nil)
}

// RepartitionAndSortNormalized is the Tera Sort primitive, Spark's
// repartitionAndSortWithinPartitions: shuffle by the partitioner and hand
// each reduce partition over sorted by key. The lowering follows Hadoop's
// recipe, not Spark's: the map-side sort writer is given less and the key
// writer, so every map output segment is sorted by key, and the reduce side
// merges the fetched segments (shuffle.ParallelMerge). Under
// shuffle.strategy=hash the segments arrive unsorted and the reduce side
// sorts them whole. With a nil normKey the sorts call less per comparison;
// otherwise they compare packed key bytes with memcmp. Spark itself gives its
// map-side ExternalSorter no key ordering when nothing combines map-side
// (SortShuffleWriter, or BypassMergeSortShuffleWriter at 200 partitions or
// fewer; UnsafeShuffleWriter sorts by partition id only), and
// BlockStoreShuffleReader sorts each partition on read. normKey MUST be total
// and order exactly as less does — serde.NormKeyerFor builds conforming
// writers for natural-ordered scalar keys.
func RepartitionAndSortNormalized[K comparable, V any](r *RDD[core.Pair[K, V]],
	part core.Partitioner[K], less func(a, b K) bool,
	normKey func(dst []byte, k K) []byte) *RDD[core.Pair[K, V]] {
	return shuffledRDD(r, "RepartitionAndSortWithinPartitions", core.OpPartition, part,
		func(v V) V { return v }, nil, less, normKey)
}

// shuffledRDD builds the wide dependency: map tasks write partitioned,
// serialized buckets; reduce tasks fetch and merge. With mergeCombiners
// the buckets are combined map-side and folded reduce-side; without it (a
// repartition) every record is kept, sorted by key when less is given.
func shuffledRDD[K comparable, V, C any](r *RDD[core.Pair[K, V]], name string, kind core.OpKind,
	part core.Partitioner[K], createCombiner func(V) C, mergeCombiners func(C, C) C,
	less func(a, b K) bool, normKey func(dst []byte, k K) []byte) *RDD[core.Pair[K, C]] {

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
		// that fails upstream — or panics in a user function — leaves it
		// half fed, is aborted, and a retry starts clean.
		w := newMapWriter(tc, sd, part, pairCodec, createCombiner, mergeCombiners, less, normKey)
		done := false
		defer func() {
			if !done {
				w.abort()
			}
		}()
		err := r.forEachBatch(mapPart, tc, func(_ int, in []core.Pair[K, V]) error { return w.addBatch(in) })
		if err == nil {
			err = w.close(mapPart)
		}
		done = err == nil
		return err
	}

	out := newRDD[core.Pair[K, C]](ctx, name, kind, numParts, []dep{{parent: r, shuffle: sd}}, nil)
	out.compute = func(p int, tc *taskContext) ([]core.Pair[K, C], error) {
		blocks, err := ctx.shuffles.fetch(sd.id, p, tc)
		if err != nil {
			return nil, err
		}
		segs, err := shuffle.DecodeBlocks(ctx.shuffleSet, pairCodec, blocks)
		for i := range blocks {
			blocks[i].Release() // drops the reference; the service keeps its own
		}
		if err != nil {
			return nil, fmt.Errorf("spark: shuffle decode: %w", err)
		}
		if mergeCombiners == nil {
			if less == nil {
				return shuffle.Concat(segs), nil
			}
			lessPair := func(a, b core.Pair[K, C]) bool { return less(a.Key, b.Key) }
			if ctx.shuffleSet.Kind == shuffle.Sort {
				// Sort shuffles deliver key-sorted map outputs: the read
				// side is a parallel k-way merge over the runtime instead
				// of a full re-sort, ordering heads by their normalized-key
				// prefixes (tungsten's UnsafeSorterSpillMerger).
				return shuffle.ParallelMerge(ctx.rt, tc.node, segs, lessPair, serde.PairNormKeyer[K, C](normKey)), nil
			}
			// Hash shuffles deliver unordered buckets: sort them whole, by
			// normalized key when there is a key writer — the same order as
			// the stable comparison sort, which is left for keys without one.
			all := shuffle.Concat(segs)
			if normKey != nil {
				shuffle.SortByNormKey(all, serde.PairNormKeyer[K, C](normKey))
			} else {
				sort.SliceStable(all, func(i, j int) bool { return lessPair(all[i], all[j]) })
			}
			return all, nil
		}
		return shuffle.FoldFirstSeen(segs, mergeCombiners), nil
	}
	out.partitioner = partitionerKey(part)
	return out
}

// CoGrouped is one key's values on the two sides of a CoGroup, each side in
// partition order. Both slices are full (capacity = length), so appending
// to one copies instead of overwriting its neighbour's values.
type CoGrouped[V, W any] struct {
	Left  []V
	Right []W
}

// CoGroup groups two pair RDDs by key under part, like Spark's cogroup:
// every key present on either side yields one record with all of its values
// from both. A side that already has part is a narrow dependency — its
// partition p holds exactly the keys part sends to p — and a side that does
// not is shuffled by part first. Co-partitioned inputs therefore cogroup
// without any shuffle, as GraphX's joins of a graph's vertices with its
// edges do. The result has part. Keys come out in first-seen order, left
// side first; each side's values are grouped into one backing array per
// partition, so a partition costs a fixed number of allocations.
func CoGroup[K comparable, V, W any](left *RDD[core.Pair[K, V]], right *RDD[core.Pair[K, W]],
	part core.Partitioner[K]) *RDD[core.Pair[K, CoGrouped[V, W]]] {
	if left.ctx != right.ctx {
		panic("spark: cogroup of RDDs from different contexts")
	}
	l, r := PartitionBy(left, part), PartitionBy(right, part)
	out := newRDD[core.Pair[K, CoGrouped[V, W]]](left.ctx, "CoGroup", core.OpCoGroup, part.NumPartitions(),
		[]dep{{parent: l}, {parent: r}}, func(p int, tc *taskContext) ([]core.Pair[K, CoGrouped[V, W]], error) {
			ls, err := l.iterator(p, tc)
			if err != nil {
				return nil, err
			}
			rs, err := r.iterator(p, tc)
			if err != nil {
				return nil, err
			}
			index := make(map[K]int32, max(len(ls), len(rs)))
			keys, lg := numberKeys(index, nil, ls)
			keys, rg := numberKeys(index, keys, rs)
			lv, rv := groupValues(lg, ls, len(keys)), groupValues(rg, rs, len(keys))
			out := make([]core.Pair[K, CoGrouped[V, W]], len(keys))
			for g, k := range keys {
				out[g] = core.KV(k, CoGrouped[V, W]{Left: lv[g], Right: rv[g]})
			}
			return out, nil
		})
	out.partitioner = partitionerKey(part)
	return out
}

// numberKeys returns the group number of each record's key, giving a key
// index has not seen the next number, and keys extended by the new keys in
// first-seen order — the grouping GroupByKey and CoGroup share.
func numberKeys[K comparable, V any](index map[K]int32, keys []K, recs []core.Pair[K, V]) ([]K, []int32) {
	group := make([]int32, len(recs))
	for i, kv := range recs {
		g, ok := index[kv.Key]
		if !ok {
			g = int32(len(keys))
			index[kv.Key] = g
			keys = append(keys, kv.Key)
		}
		group[i] = g
	}
	return keys, group
}

// groupValues returns, for each of n groups, the values of the records
// group[i] assigns to it, in record order: a counting sort into one backing
// array, each group a full slice of it. A group with no record gets nil.
func groupValues[K comparable, V any](group []int32, recs []core.Pair[K, V], n int) [][]V {
	out := make([][]V, n)
	if len(recs) == 0 {
		return out
	}
	// next[g] starts as the offset of group g and ends as the offset of
	// group g+1 once g's values are placed.
	next := make([]int32, n+1)
	for _, g := range group {
		next[g+1]++
	}
	for g := 1; g <= n; g++ {
		next[g] += next[g-1]
	}
	vals := make([]V, len(recs))
	for i, g := range group {
		vals[next[g]] = recs[i].Value
		next[g]++
	}
	start := int32(0)
	for g := range out {
		if end := next[g]; end > start {
			out[g] = vals[start:end:end]
			start = end
		}
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
