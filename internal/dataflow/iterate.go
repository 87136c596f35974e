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
//   - mapreduce: chained jobs — the dataset and the state round-trip
//     through the DFS between rounds, so every iteration re-reads the full
//     input and pays job startup (the several-fold iterative gap of the
//     related work).
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
	node.Iterations = iters
	node.Combinable = true
	return &Iteration[T, K, V, S]{
		data: data, init: init, iters: iters,
		assign: assign, combine: combine, finalize: finalize,
		node: node,
	}
}

// Node returns the logical iteration node for PlanOf.
func (it *Iteration[T, K, V, S]) Node() *Node { return it.node }

// Run executes the iteration on the session's backend and returns the
// final state in the init entry order.
func (it *Iteration[T, K, V, S]) Run() ([]core.Pair[K, S], error) {
	switch it.data.s.kind() {
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
		pairs := spark.MapToPair(rdd, func(t T) core.Pair[K, V] { return it.assign(t, st) })
		sums := spark.ReduceByKey(pairs, it.combine, len(state))
		m, err := spark.CollectAsMap(sums)
		if err != nil {
			return nil, err
		}
		next := make(map[K]S, len(m))
		for k, v := range m {
			next[k] = it.finalize(k, v)
		}
		mergeState(state, next)
	}
	return state, nil
}

// runFlink is the native bulk iteration: the step dataflow is scheduled
// once and the state stays resident across supersteps.
func (it *Iteration[T, K, V, S]) runFlink() ([]core.Pair[K, S], error) {
	env := it.data.s.handle().(*flink.Env)
	dataDS, err := repOf[*flink.DataSet[T]](it.data)
	if err != nil {
		return nil, err
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
	pairs, err := flink.Collect(final)
	if err != nil {
		return nil, err
	}
	mergeState(state, pairMap(pairs))
	return state, nil
}

// pairMap indexes pairs by key.
func pairMap[K comparable, S any](pairs []core.Pair[K, S]) map[K]S {
	m := make(map[K]S, len(pairs))
	for _, p := range pairs {
		m[p.Key] = p.Value
	}
	return m
}

// runMapReduce is the chained-jobs lowering: the (fused) dataset is staged
// to the DFS once, then every round re-reads it and the state file, runs a
// full combine+reduce job and writes the state back — the repeated I/O the
// in-memory engines were designed to eliminate.
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
	// keep it resident between jobs).
	enc := serde.EncodeAll(dataCodec, nil, sp.records())
	c.FS().WriteFile(dataFile, enc)
	c.Metrics().DiskBytesWritten.Add(int64(len(enc)))
	numSplits := max(sp.n, 1)

	state := it.clonedState()
	err = mapreduce.Iterate(c, it.iters, func(round int) error {
		// The state round-trips through the DFS between jobs — the
		// distributed-cache step of a Hadoop iteration.
		senc := serde.EncodeAll(stateCodec, nil, state)
		c.FS().WriteFile(stateFile, senc)
		c.Metrics().DiskBytesWritten.Add(int64(len(senc)))
		sf, err := c.FS().Open(stateFile)
		if err != nil {
			return err
		}
		st, err := serde.DecodeAll(stateCodec, sf.Contents())
		if err != nil {
			return err
		}
		c.Metrics().DiskBytesRead.Add(sf.Size())

		df, err := c.FS().Open(dataFile)
		if err != nil {
			return err
		}
		recs, err := serde.DecodeAll(dataCodec, df.Contents())
		if err != nil {
			return err
		}
		in := splitsOf(mapreduce.SplitSlice(c, recs, numSplits), nil, df.Size())
		job := mapreduce.Job[T, K, V]{
			Name:    fmt.Sprintf("Iterate#%d", round+1),
			Reduces: len(state),
			Map:     func(t T, emit func(K, V)) { p := it.assign(t, st); emit(p.Key, p.Value) },
			Combine: func(_ K, vs []V) V { return foldValues(vs, it.combine) },
			Reduce: func(k K, vs []V, emit func(K, V)) {
				emit(k, foldValues(vs, it.combine))
			},
		}
		out, err := mapreduce.Run(c, job, in.input(c))
		if err != nil {
			return err
		}
		next := map[K]S{}
		for _, kv := range out.Pairs() {
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
