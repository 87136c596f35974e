package dataflow

import (
	"cmp"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine/flink"
	"repro/internal/engine/mapreduce"
	"repro/internal/engine/spark"
	"repro/internal/serde"
)

// Iteration is the engine-neutral form of the paper's iterative workloads
// (K-Means being the canonical one): a small keyed state — broadcast to
// every task — is recomputed from the full dataset each round via
// assign (map with the state in hand) → combine (per-key reduction) →
// finalize (new state entry per key). Keys absent from a round's
// aggregation keep their previous state.
//
// Run preserves each engine's iteration model, the contrast the paper
// measures in Figures 10-11:
//
//   - spark: loop unrolling — the data RDD is lowered once (honoring
//     Cached), and every round schedules a fresh mapToPair→reduceByKey job
//     ending in collectAsMap on the driver;
//   - flink: a native bulk iteration — the step dataflow
//     map(withBroadcastSet)→groupBy→reduce→map is scheduled once and the
//     state cycles through it with no per-round scheduling;
//   - mapreduce: chained jobs — the dataset is staged on the DFS once and
//     every round is a job whose map tasks re-read it, with the state as
//     the distributed cache, so every iteration pays the full input read
//     and job startup (the several-fold iterative gap of the related work);
//     the driver only writes the state and reads each round's few reduced
//     records back.
type Iteration[T any, K cmp.Ordered, V any, S any] struct {
	data     *Dataset[T]
	init     []core.Pair[K, S]
	iters    int
	assign   func(T, []core.Pair[K, S]) core.Pair[K, V]
	combine  func(V, V) V
	finalize func(K, V) S
	node     *Node
}

// NewIteration builds the logical iteration over data. assign sees the
// current state (in stable entry order on every engine) and emits one
// contribution pair per record; combine merges contributions per key;
// finalize turns a key's merged contribution into its next state.
func NewIteration[T any, K cmp.Ordered, V any, S any](data *Dataset[T], init []core.Pair[K, S], iters int,
	assign func(T, []core.Pair[K, S]) core.Pair[K, V],
	combine func(V, V) V,
	finalize func(K, V) S) *Iteration[T, K, V, S] {
	node := data.s.newNode(core.OpBulkIteration, "Iterate", data.node)
	return &Iteration[T, K, V, S]{
		data: data, init: init, iters: iters,
		assign: assign, combine: combine, finalize: finalize,
		node: node,
	}
}

// Run executes the iteration on the session's engine and returns the
// final state in the init entry order.
func (it *Iteration[T, K, V, S]) Run() ([]core.Pair[K, S], error) {
	switch it.data.s.kind {
	case Spark:
		return it.runSpark()
	case Flink:
		return it.runFlink()
	default:
		return it.runMapReduce()
	}
}

// clonedState copies the initial state so rounds never mutate init.
func (it *Iteration[T, K, V, S]) clonedState() []core.Pair[K, S] {
	return append([]core.Pair[K, S]{}, it.init...)
}

// mergeState folds one round's finalized entries into state by key.
func mergeState[K cmp.Ordered, S any](state []core.Pair[K, S], entries map[K]S) {
	for i, p := range state {
		if s, ok := entries[p.Key]; ok {
			state[i] = core.KV(p.Key, s)
		}
	}
}

// runSpark is the driver loop: one scheduled job per round over the (once
// lowered, possibly cached) data RDD.
func (it *Iteration[T, K, V, S]) runSpark() ([]core.Pair[K, S], error) {
	rdd, err := repOf[*spark.RDD[T]](it.data)
	if err != nil {
		return nil, err
	}
	state := it.clonedState()
	for round := 0; round < it.iters; round++ {
		st := append([]core.Pair[K, S]{}, state...)
		it.data.s.driverRecords(len(st)) // the round's broadcast
		m, err := spark.CollectAsMap(it.sparkRound(rdd, st))
		if err != nil {
			return nil, err
		}
		it.data.s.driverRecords(len(m))
		next := make(map[K]S, len(m))
		for k, v := range m {
			next[k] = it.finalize(k, v)
		}
		mergeState(state, next)
	}
	return state, nil
}

// sparkRound is one round's job over the data RDD: assign with the round's
// state st in hand, then the keyed reduction.
func (it *Iteration[T, K, V, S]) sparkRound(rdd *spark.RDD[T], st []core.Pair[K, S]) *spark.RDD[core.Pair[K, V]] {
	pairs := spark.MapToPair(rdd, func(t T) core.Pair[K, V] { return it.assign(t, st) })
	return spark.ReduceByKey(pairs, it.combine, len(it.init))
}

// runFlink is the native bulk iteration: the step dataflow is scheduled
// once and the state stays resident across supersteps.
func (it *Iteration[T, K, V, S]) runFlink() ([]core.Pair[K, S], error) {
	final, state, err := it.flinkIteration()
	if err != nil {
		return nil, err
	}
	it.data.s.driverRecords(len(state)) // the broadcast set's source
	pairs, err := flink.Collect(final)
	if err != nil {
		return nil, err
	}
	it.data.s.driverRecords(len(pairs))
	mergeState(state, pairMap(pairs))
	return state, nil
}

// flinkIteration builds the bulk iteration over the lowered data and the
// state it folds every superstep's partial solution into.
func (it *Iteration[T, K, V, S]) flinkIteration() (*flink.DataSet[core.Pair[K, S]], []core.Pair[K, S], error) {
	env := it.data.s.h.(*flink.Env)
	dataDS, err := repOf[*flink.DataSet[T]](it.data)
	if err != nil {
		return nil, nil, err
	}
	state := it.clonedState()
	stateDS := flink.FromSlice(env, it.clonedState(), 1)
	k := len(it.init)
	final := flink.IterateBulk(stateDS, it.iters,
		func(cs *flink.DataSet[core.Pair[K, S]]) *flink.DataSet[core.Pair[K, S]] {
			// The partial solution comes back from the reduce's exchange in
			// arrival order and without the keys the round did not aggregate:
			// the first record of a superstep folds it into the state, so
			// assign sees init entry order, as on the other engines.
			var once sync.Once
			var st []core.Pair[K, S]
			assigned := flink.MapWithBroadcast(dataDS, cs, func(t T, cur []core.Pair[K, S]) core.Pair[K, V] {
				once.Do(func() {
					mergeState(state, pairMap(cur))
					st = append([]core.Pair[K, S]{}, state...)
				})
				return it.assign(t, st)
			})
			grouped := flink.GroupBy(assigned, func(p core.Pair[K, V]) K { return p.Key }).WithParallelism(k)
			sums := flink.Reduce(grouped, func(a, b core.Pair[K, V]) core.Pair[K, V] {
				return core.KV(a.Key, it.combine(a.Value, b.Value))
			})
			return flink.Map(sums, func(p core.Pair[K, V]) core.Pair[K, S] {
				return core.KV(p.Key, it.finalize(p.Key, p.Value))
			})
		})
	return final, state, nil
}

// pairMap indexes pairs by key.
func pairMap[K comparable, S any](pairs []core.Pair[K, S]) map[K]S {
	m := make(map[K]S, len(pairs))
	for _, p := range pairs {
		m[p.Key] = p.Value
	}
	return m
}

// runMapReduce is the chained-jobs lowering, run the way Hadoop runs an
// iteration: a wave of one task per split stages the (fused) dataset on the
// DFS once, each task encoding its split into its own part of one file, and
// every round is then one full combine+reduce job over that file. Map task m
// reads and decodes part m itself, together with the state file — the
// round's distributed cache, which every map task reads — and assigns its
// records. The driver only writes the state, schedules the job and reads the
// reduce output back (a few records per key): the repeated DFS round trip
// and job startup the in-memory engines were designed to eliminate happen in
// the tasks, and the driver never decodes the data.
func (it *Iteration[T, K, V, S]) runMapReduce() ([]core.Pair[K, S], error) {
	c := mrCluster(it.data.s)
	fr, err := repOf[*mrFrag[T]](it.data)
	if err != nil {
		return nil, err
	}
	sp, err := fr.load()
	if err != nil {
		return nil, err
	}
	style := c.Style()
	dataCodec := serde.Of[T](style)
	stateCodec := serde.OfPair[K, S](style)
	c.Metrics().CodecFallbacks.Add(int64(dataCodec.Fallbacks + stateCodec.Fallbacks))
	dataFile := fmt.Sprintf("dataflow/iter-%d/input", it.node.ID)
	stateFile := fmt.Sprintf("dataflow/iter-%d/state", it.node.ID)

	// Stage the iteration input on the DFS once (MapReduce has no way to
	// keep it resident between jobs): task i encodes split i, and the driver
	// commits the encoded splits as the file's parts, as the sink does.
	staged := newSinkParts(sp.n, dataCodec.Encode)
	if err := sp.foreachPart(c, staged.add); err != nil {
		return nil, err
	}
	df := c.FS().WriteParts(dataFile, staged.bufs)
	c.Metrics().DiskBytesWritten.Add(df.Size())

	width := c.Conf().ExecBatchSize
	state := it.clonedState()
	err = mapreduce.Iterate(c, it.iters, func(round int) error {
		senc := serde.EncodeAll(stateCodec, nil, state)
		c.FS().WriteFile(stateFile, senc)
		c.Metrics().DiskBytesWritten.Add(int64(len(senc)))
		c.Metrics().DriverRecords.Add(int64(len(state)))

		// Map task m: the cache and part m from the DFS, assign with the
		// cache in hand, exec.batch.size pairs at a time to the map.
		scan := func(m int, yield func([]core.Pair[K, V]) error) error {
			sf, err := c.FS().Open(stateFile)
			if err != nil {
				return err
			}
			st, err := serde.DecodeAllN(stateCodec, sf.Part(0), len(state))
			if err != nil {
				return err
			}
			recs, err := serde.DecodeAllN(dataCodec, df.Part(m), int(staged.recs[m]))
			if err != nil {
				return err
			}
			c.Metrics().DiskBytesRead.Add(sf.Size() + int64(len(df.Part(m))))
			out := make([]core.Pair[K, V], 0, min(width, len(recs)))
			for _, t := range recs {
				if out = append(out, it.assign(t, st)); len(out) == cap(out) {
					if err := yield(out); err != nil {
						return err
					}
					out = out[:0]
				}
			}
			return yield(out)
		}
		job := it.mrRound()
		job.Name = fmt.Sprintf("Iterate#%d", round+1)
		out, err := mapreduce.Run(c, job, mapreduce.SplitsInput(c, sp.n, scan, sp.pref, 0))
		if err != nil {
			return err
		}
		sums := out.Pairs()
		c.Metrics().DriverRecords.Add(int64(len(sums)))
		next := make(map[K]S, len(sums))
		for _, kv := range sums {
			next[kv.Key] = it.finalize(kv.Key, kv.Value)
		}
		mergeState(state, next)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return state, nil
}

// mrRound is the job every round runs: the map task's assigned pairs, their
// per-key fold as the Combine and the Reduce.
func (it *Iteration[T, K, V, S]) mrRound() mapreduce.Job[core.Pair[K, V], K, V] {
	return mapreduce.Job[core.Pair[K, V], K, V]{
		Reduces: len(it.init),
		Map:     func(p core.Pair[K, V], emit func(K, V)) { emit(p.Key, p.Value) },
		Combine: func(_ K, vs []V) V { return foldValues(vs, it.combine) },
		Reduce: func(k K, vs []V, emit func(K, V)) {
			emit(k, foldValues(vs, it.combine))
		},
	}
}

// Sink is Run, for PlanOf, rendered from the builders Run uses: one round's
// job on spark, the bulk iteration with its step dataflow on flink, the
// staging wave and the round job on mapreduce.
func (it *Iteration[T, K, V, S]) Sink() Sink {
	return Sink{s: it.data.s, add: func(r *planSinks) error {
		switch it.data.s.kind {
		case Spark:
			rdd, err := repOf[*spark.RDD[T]](it.data)
			if err != nil {
				return err
			}
			r.spark = append(r.spark, spark.SinkOf(it.sparkRound(rdd, it.init), "CollectAsMap (per round)"))
		case Flink:
			final, _, err := it.flinkIteration()
			if err != nil {
				return err
			}
			r.flink = append(r.flink, flink.SinkOf(final, "Collect"))
		default:
			fr, err := repOf[*mrFrag[T]](it.data)
			if err != nil {
				return err
			}
			p := &r.mr
			staged := p.node(core.OpForeachPartition, "StageInput", fr.render(p))
			cache := p.node(core.OpSource, "DistributedCache(state)")
			round := p.job(core.OpReduceByKey, it.mrRound().Operators(), staged, cache)
			loop := p.node(core.OpBulkIteration, fmt.Sprintf("ChainedJobs(%d)", it.iters), round)
			r.mrOut = append(r.mrOut, p.node(core.OpSink, "Collect (per round)", loop))
		}
		return nil
	}}
}
