package graph

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/engine/mapreduce"
	"repro/internal/serde"
)

// The mapreduce lowering: Pregel as chained DFS jobs, the only iteration
// mechanism classic Hadoop offers. The edge list is staged to the DFS once
// and RE-READ by every superstep's job (nothing is ever resident between
// jobs); the vertex states round-trip through a DFS state file like a
// distributed-cache artifact. Each superstep is one full two-phase job:
// the map scans every edge and emits messages from active vertices, the
// combiner and reducer fold mergeMsg, and the driver applies the vertex
// program — the repeated load→shuffle→reduce cost that the in-memory
// engines' caching and native iterations eliminate.

// mrVertex is one vertex's DFS-persisted state.
type mrVertex[V any] struct {
	Val    V
	Active bool
}

// errConverged signals early termination out of mapreduce.Iterate.
var errConverged = errors.New("graph: pregel converged")

// foldWith reduces a non-empty message group with mergeMsg — the combiner
// and reducer body of every graph job.
func foldWith[M any](mergeMsg func(M, M) M) func([]M) M {
	return func(vs []M) M {
		acc := vs[0]
		for _, v := range vs[1:] {
			acc = mergeMsg(acc, v)
		}
		return acc
	}
}

// mrGraphInput stages the edge list on the DFS and returns the sorted
// vertex ids plus a loader that re-reads the edges (charging the read) —
// called once per superstep, because MapReduce cannot keep them resident.
func mrGraphInput[V any](g *Graph[V]) (c *mapreduce.Cluster, ids []int64, readEdges func() ([]datagen.Edge, int64, error), err error) {
	c = g.s.Backend().Handle().(*mapreduce.Cluster)
	edges, err := dataflow.Collect(g.edges)
	if err != nil {
		return nil, nil, nil, err
	}
	codec := serde.Of[datagen.Edge](c.Style())
	c.Metrics().CodecFallbacks.Add(int64(codec.Fallbacks))
	file := fmt.Sprintf("dataflow/graph-%d/edges", g.edges.Node().ID)
	enc := serde.EncodeAll(codec, nil, edges)
	c.FS().WriteFile(file, enc)
	c.Metrics().DiskBytesWritten.Add(int64(len(enc)))

	seen := map[int64]bool{}
	for _, e := range edges {
		seen[e.Src] = true
		seen[e.Dst] = true
	}
	ids = make([]int64, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// The read itself is charged by the consuming job's map phase (the
	// byte volume is handed to SplitsInput), like iterate.go's data file —
	// charging here too would double-count every superstep.
	readEdges = func() ([]datagen.Edge, int64, error) {
		f, err := c.FS().Open(file)
		if err != nil {
			return nil, 0, err
		}
		recs, err := serde.DecodeAll(codec, f.Contents())
		if err != nil {
			return nil, 0, err
		}
		return recs, f.Size(), nil
	}
	return c, ids, readEdges, nil
}

// edgeInput splits the staged edges one map task per node, charging bytes
// as the map phase's DFS read.
func edgeInput(c *mapreduce.Cluster, edges []datagen.Edge, bytes int64) mapreduce.Input[datagen.Edge] {
	splits := mapreduce.SplitSlice(c, edges, 0)
	scan := func(m int, yield func([]datagen.Edge) error) error { return yield(splits[m]) }
	return mapreduce.SplitsInput(c, len(splits), scan, nil, bytes)
}

// messageJob runs one superstep's job: scan the staged edges, emit
// messages from vertices lookup marks active, fold mergeMsg map-side and
// reduce-side.
func messageJob[V, M any](c *mapreduce.Cluster, name string,
	readEdges func() ([]datagen.Edge, int64, error),
	lookup func(int64) (V, bool),
	sendMsg func(int64, V, int64) (M, bool),
	mergeMsg func(M, M) M) ([]core.Pair[int64, M], error) {

	edges, bytes, err := readEdges()
	if err != nil {
		return nil, err
	}
	in := edgeInput(c, edges, bytes)
	fold := foldWith(mergeMsg)
	job := mapreduce.Job[datagen.Edge, int64, M]{
		Name: name,
		Map: func(e datagen.Edge, emit func(int64, M)) {
			if val, ok := lookup(e.Src); ok {
				if m, ok := sendMsg(e.Src, val, e.Dst); ok {
					emit(e.Dst, m)
				}
			}
		},
		Combine: func(_ int64, vs []M) M { return fold(vs) },
		Reduce:  func(k int64, vs []M, emit func(int64, M)) { emit(k, fold(vs)) },
	}
	out, err := mapreduce.Run(c, job, in)
	if err != nil {
		return nil, err
	}
	return out.Pairs(), nil
}

func pregelMapReduce[V, M any](g *Graph[V],
	initial func(int64) V,
	vprog func(int64, V, M) (V, bool),
	sendMsg func(int64, V, int64) (M, bool),
	mergeMsg func(M, M) M,
	maxIter int) (map[int64]V, int, error) {

	c, ids, readEdges, err := mrGraphInput(g)
	if err != nil {
		return nil, 0, err
	}
	state := make(map[int64]mrVertex[V], len(ids))
	for _, id := range ids {
		state[id] = mrVertex[V]{Val: initial(id), Active: true}
	}
	result := func() map[int64]V {
		out := make(map[int64]V, len(state))
		for id, st := range state {
			out[id] = st.Val
		}
		return out
	}
	if len(ids) == 0 {
		return result(), 0, nil
	}

	stateCodec := serde.OfPair[int64, mrVertex[V]](c.Style())
	c.Metrics().CodecFallbacks.Add(int64(stateCodec.Fallbacks))
	stateFile := fmt.Sprintf("dataflow/graph-%d/state", g.edges.Node().ID)
	supersteps := 0
	err = mapreduce.Iterate(c, maxIter, func(round int) error {
		// The state round-trips through the DFS between jobs (the
		// distributed-cache step of a Hadoop Pregel), in sorted id order so
		// the staged bytes are deterministic.
		entries := make([]core.Pair[int64, mrVertex[V]], len(ids))
		for i, id := range ids {
			entries[i] = core.KV(id, state[id])
		}
		senc := serde.EncodeAll(stateCodec, nil, entries)
		c.FS().WriteFile(stateFile, senc)
		c.Metrics().DiskBytesWritten.Add(int64(len(senc)))
		sf, err := c.FS().Open(stateFile)
		if err != nil {
			return err
		}
		staged, err := serde.DecodeAll(stateCodec, sf.Contents())
		if err != nil {
			return err
		}
		c.Metrics().DiskBytesRead.Add(sf.Size())
		st := make(map[int64]mrVertex[V], len(staged))
		for _, p := range staged {
			st[p.Key] = p.Value
		}

		msgs, err := messageJob(c, fmt.Sprintf("Pregel#%d", round+1), readEdges,
			func(id int64) (V, bool) {
				s, ok := st[id]
				return s.Val, ok && s.Active
			},
			sendMsg, mergeMsg)
		if err != nil {
			return err
		}
		if len(msgs) == 0 {
			return errConverged
		}
		supersteps++

		// Apply the vertex program on the driver (the update half of the
		// chained job); unmessaged vertices go inactive.
		messaged := make(map[int64]bool, len(msgs))
		for _, kv := range msgs {
			messaged[kv.Key] = true
			cur := state[kv.Key]
			val, changed := vprog(kv.Key, cur.Val, kv.Value)
			state[kv.Key] = mrVertex[V]{Val: val, Active: changed}
		}
		for id, s := range state {
			if s.Active && !messaged[id] {
				state[id] = mrVertex[V]{Val: s.Val, Active: false}
			}
		}
		return nil
	})
	if err != nil && !errors.Is(err, errConverged) {
		return nil, supersteps, err
	}
	return result(), supersteps, nil
}

func aggregateMapReduce[V, M any](g *Graph[V],
	initial func(int64) V,
	send func(int64, V, int64) []Msg[M],
	mergeMsg func(M, M) M) (map[int64]M, error) {

	c, ids, readEdges, err := mrGraphInput(g)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return map[int64]M{}, nil
	}
	st := make(map[int64]V, len(ids))
	for _, id := range ids {
		st[id] = initial(id)
	}
	edges, bytes, err := readEdges()
	if err != nil {
		return nil, err
	}
	fold := foldWith(mergeMsg)
	job := mapreduce.Job[datagen.Edge, int64, M]{
		Name: "AggregateMessages",
		Map: func(e datagen.Edge, emit func(int64, M)) {
			val, ok := st[e.Src]
			if !ok {
				return
			}
			for _, m := range send(e.Src, val, e.Dst) {
				emit(m.To, m.Value)
			}
		},
		Combine: func(_ int64, vs []M) M { return fold(vs) },
		Reduce:  func(k int64, vs []M, emit func(int64, M)) { emit(k, fold(vs)) },
	}
	out, err := mapreduce.Run(c, job, edgeInput(c, edges, bytes))
	if err != nil {
		return nil, err
	}
	merged := make(map[int64]M)
	for _, kv := range out.Pairs() {
		merged[kv.Key] = kv.Value
	}
	return merged, nil
}
