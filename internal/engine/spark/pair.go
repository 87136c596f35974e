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

// Keys projects the keys of a pair RDD.
func Keys[K comparable, V any](r *RDD[core.Pair[K, V]]) *RDD[K] {
	return Map(r, func(p core.Pair[K, V]) K { return p.Key })
}

// Values projects the values of a pair RDD.
func Values[K comparable, V any](r *RDD[core.Pair[K, V]]) *RDD[V] {
	return Map(r, func(p core.Pair[K, V]) V { return p.Value })
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
// accumulators reduce-side. The result is hash-partitioned over numParts.
// When r already has that partitioner every key's records are in one
// partition, and the aggregation runs within partitions with no shuffle
// (Spark's combineByKeyWithClassTag): createCombiner and mergeValue fold
// each partition, keys in first-seen order.
func CombineByKey[K comparable, V, C any](r *RDD[core.Pair[K, V]], name string,
	createCombiner func(V) C, mergeValue func(C, V) C, mergeCombiners func(C, C) C,
	numParts int, mapSideCombine bool) *RDD[core.Pair[K, C]] {
	if numParts <= 0 {
		numParts = r.ctx.parallelism
	}
	part := core.NewHashPartitioner[K](numParts)
	if !partitionedBy(r, part) {
		return shuffledRDD(r, name, core.OpReduceByKey, part, createCombiner, mergeValue, mergeCombiners, mapSideCombine, false, nil, nil)
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
		// that fails upstream — or panics in a user function — leaves it
		// half fed, is aborted, and a retry starts clean.
		w := newMapWriter(tc, sd, part, pairCodec, mapSideCombine, createCombiner, mergeValue, mergeCombiners, less, normKey)
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

// Joined is the result element of an inner join.
type Joined[V, W any] struct {
	Left  V
	Right W
}

// Join inner-joins two pair RDDs on their keys, hash-partitioned over
// numParts: Spark's join, a CoGroup whose groups are flattened into every
// left × right pairing. A side that already has that partitioner is read
// in place; the result keeps it.
func Join[K comparable, V, W any](left *RDD[core.Pair[K, V]], right *RDD[core.Pair[K, W]],
	numParts int) *RDD[core.Pair[K, Joined[V, W]]] {
	if numParts <= 0 {
		numParts = left.ctx.parallelism
	}
	cg := CoGroup(left, right, core.NewHashPartitioner[K](numParts))
	out := narrow(cg, "Join", core.OpJoin, func(in []core.Pair[K, CoGrouped[V, W]], _ *taskContext) ([]core.Pair[K, Joined[V, W]], error) {
		n := 0
		for _, g := range in {
			n += len(g.Value.Left) * len(g.Value.Right)
		}
		recs := make([]core.Pair[K, Joined[V, W]], 0, n)
		for _, g := range in {
			for _, lv := range g.Value.Left {
				for _, rv := range g.Value.Right {
					recs = append(recs, core.KV(g.Key, Joined[V, W]{Left: lv, Right: rv}))
				}
			}
		}
		return recs, nil
	})
	out.partitioner = cg.partitioner
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
// edges do. The result has part.
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
			return cogroupPartition(ls, rs), nil
		})
	out.partitioner = partitionerKey(part)
	return out
}

// cogroupPartition groups one partition of each side: keys are numbered in
// first-seen order (left side first), and each side's values are laid out
// grouped in one backing array that the groups slice, so a partition costs
// a fixed number of allocations however many keys it has.
func cogroupPartition[K comparable, V, W any](ls []core.Pair[K, V], rs []core.Pair[K, W]) []core.Pair[K, CoGrouped[V, W]] {
	index := make(map[K]int32, max(len(ls), len(rs)))
	var keys []K
	groupOf := func(k K) int32 {
		g, ok := index[k]
		if !ok {
			g = int32(len(keys))
			index[k] = g
			keys = append(keys, k)
		}
		return g
	}
	lg := make([]int32, len(ls))
	for i, kv := range ls {
		lg[i] = groupOf(kv.Key)
	}
	rg := make([]int32, len(rs))
	for i, kv := range rs {
		rg[i] = groupOf(kv.Key)
	}
	lv, rv := groupValues(lg, ls, len(keys)), groupValues(rg, rs, len(keys))
	out := make([]core.Pair[K, CoGrouped[V, W]], len(keys))
	for g, k := range keys {
		out[g] = core.KV(k, CoGrouped[V, W]{Left: lv[g], Right: rv[g]})
	}
	return out
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
