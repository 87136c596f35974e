package spark

import (
	"repro/internal/core"
	"repro/internal/serde"
	"repro/internal/shuffle"
)

// mapWriter is the map side of the shuffle, now a thin adapter over the
// shared shuffle core (internal/shuffle): records are lifted to the
// combiner type, fed through the configured strategy — tungsten-sort-style
// spill-and-merge by default, hash-bucketed with spark.shuffle.manager=hash
// or shuffle.strategy=hash — and the finished blocks register with the
// shuffle service as this task's map output. With map-side combine the core
// folds each lifted record into its key's entry as it arrives (Spark's
// PartitionedAppendOnlyMap), under either strategy. Memory is granted from
// the executor heap's shuffle fraction, per held entry; a refused grant
// spills.
//
// A writer serves one attempt of one map task. The attempt ends in close,
// which registers the map output, or — when the parent's stream, a write or
// the final merge failed — in abort, which registers nothing and gives back
// whatever the attempt still holds.
type mapWriter[K comparable, V, C any] struct {
	tc             *taskContext
	sd             *shuffleDep
	w              shuffle.Writer[core.Pair[K, C]]
	createCombiner func(V) C

	buckets []shuffle.Block
	raw     int64
	// lift is addBatch's combiner-lift scratch, one exec.batch.size chunk,
	// reused. The width is read from the configuration here, once: an unset
	// key costs Config.Int a strconv error, and addBatch runs per batch.
	lift []core.Pair[K, C]
}

// newMapWriter wires the writer for one map task. less, when non-nil, is
// the key order sort shuffles establish map-side (repartitionAndSort);
// mergeValue is subsumed by createCombiner+mergeCombiners (the combineByKey
// contract makes them equivalent) and kept for the call-site signature.
func newMapWriter[K comparable, V, C any](tc *taskContext, sd *shuffleDep,
	part core.Partitioner[K], codec serde.Codec[core.Pair[K, C]], mapSideCombine bool,
	createCombiner func(V) C, mergeValue func(C, V) C, mergeCombiners func(C, C) C,
	less func(a, b K) bool, normKey func(dst []byte, k K) []byte) *mapWriter[K, V, C] {
	_ = mergeValue
	w := &mapWriter[K, V, C]{
		tc:             tc,
		sd:             sd,
		createCombiner: createCombiner,
		buckets:        make([]shuffle.Block, sd.numParts),
		lift:           make([]core.Pair[K, C], 0, core.ExecBatch(tc.ctx.conf)),
	}
	spec := shuffle.Spec[core.Pair[K, C]]{
		NumParts: sd.numParts,
		Codec:    codec,
		Route:    func(p core.Pair[K, C]) int { return part.Partition(p.Key) },
		Key:      shuffle.PairKey[K, C](),
	}
	if less != nil {
		spec.Less = func(a, b core.Pair[K, C]) bool { return less(a.Key, b.Key) }
		spec.NormKey = serde.PairNormKeyer[K, C](normKey)
	}
	if mapSideCombine {
		spec.Merge = func(a, b core.Pair[K, C]) core.Pair[K, C] {
			return core.KV(a.Key, mergeCombiners(a.Value, b.Value))
		}
	}
	w.w = shuffle.NewWriter(spec, shuffle.Env{
		Settings: tc.ctx.shuffleSet,
		Metrics:  tc.metrics,
		Mem:      tc.heap.AllocShuffle,
		Free:     tc.heap.FreeShuffle,
		Emit: func(p int, b shuffle.Block) error {
			// FlushBytes is zero for spark (a materialized shuffle), so
			// every partition gets exactly one Close-time block, whose
			// ownership passes through to the shuffle service.
			w.buckets[p] = b
			w.raw += b.Raw
			return nil
		},
	})
	return w
}

// addBatch feeds records batch-at-a-time: each exec.batch.size chunk is
// lifted to the combiner type in reused scratch and handed to the shuffle
// core in ONE WriteBatch call, amortizing its routing and threshold
// bookkeeping over the chunk. in is only read during the call — the lift
// copies every record — so it is a batch sink for a streaming parent
// (RDD.forEachBatch) as well as for a whole partition.
func (w *mapWriter[K, V, C]) addBatch(in []core.Pair[K, V]) error {
	for len(in) > 0 {
		n := min(cap(w.lift), len(in))
		w.lift = w.lift[:0]
		for _, p := range in[:n] {
			w.lift = append(w.lift, core.KV(p.Key, w.createCombiner(p.Value)))
		}
		if err := w.w.WriteBatch(w.lift); err != nil {
			return err
		}
		in = in[n:]
	}
	return nil
}

// close flushes the shuffle writer and registers the map output.
func (w *mapWriter[K, V, C]) close(mapPart int) error {
	if err := w.w.Close(); err != nil {
		return err
	}
	w.tc.ctx.shuffles.put(w.sd.id, mapPart, w.tc.node, w.buckets, w.raw)
	return nil
}

// abort ends a failed attempt: the shuffle core returns its heap grants, and
// the blocks a partly finished Close emitted are released.
func (w *mapWriter[K, V, C]) abort() {
	w.w.Abort()
	for i := range w.buckets {
		w.buckets[i].Release()
	}
}
