package graph

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/engine/mapreduce"
	"repro/internal/serde"
)

// The mapreduce lowering: Pregel as chained DFS jobs, the only iteration
// mechanism classic Hadoop offers, run the way Hadoop runs it — the driver
// schedules jobs and reads a counter, the tasks do everything else:
//
//   - Staging is one job over the edge Dataset, whose narrow chain runs in
//     its map tasks: every edge goes to its source's reduce partition, under
//     the engine's default partitioner over R reduces. A wave of one task
//     per reduce partition r then writes edges/part-r, the out-edges of r's
//     vertices grouped by source in id order, and state/part-r, initial(id)
//     and active for every source vertex of r.
//   - Every superstep is one job of R map tasks. Map task m opens
//     edges/part-m and state/part-m on the DFS, decodes both block by block
//     and merge-joins them in id order — Hadoop's map-side join of
//     co-partitioned inputs, an array walk — and sendMsg's messages go
//     through the engine's sort, combine and shuffle. Messages for r's
//     vertices land in reduce partition r, because the partitioner is the
//     same. The first superstep also sends a marker along every edge that
//     carries no message, so every destination reaches its partition.
//   - A wave of one task per partition r then merge-joins r's messages with
//     state/part-r (Schimmy-style): a vertex first seen as a destination
//     joins the state at initial(id), each messaged vertex folds its
//     messages and applies vprog, the others go inactive, and the task
//     writes the next state/part-r and counts the vertices it delivered to.
//     The driver reads that count: the superstep counts iff it is non-zero.
//
// Nothing is resident between jobs: every superstep re-reads the whole edge
// list and round-trips the vertex states through the DFS, and pays a job's
// startup and barrier — the repeated load→shuffle→reduce cost that the
// in-memory engines' caching and native iterations eliminate.

// mrVertex is one vertex's DFS-persisted state.
type mrVertex[V any] struct {
	Val    V
	Active bool
}

// mrMsg is one message of a superstep job, or — Sent false — a marker
// that only makes its destination known (first superstep only).
type mrMsg[M any] struct {
	Msg  M
	Sent bool
}

// mrTriplet is one edge with its source's value, what the map-side join
// hands the map function.
type mrTriplet[V any] struct {
	Src int64
	Val V
	Dst int64
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

// mrGraph is a graph staged on the DFS: parts co-partitioned pairs of
// files, edges/part-r and state/part-r, each stored as codec blocks of at
// most width records.
type mrGraph[V any] struct {
	c          *mapreduce.Cluster
	dir        string
	parts      int
	width      int
	edgeCodec  serde.Codec[datagen.Edge]
	stateCodec serde.Codec[core.Pair[int64, mrVertex[V]]]
}

func (mg *mrGraph[V]) edgeFile(r int) string  { return fmt.Sprintf("%s/edges/part-%05d", mg.dir, r) }
func (mg *mrGraph[V]) stateFile(r int) string { return fmt.Sprintf("%s/state/part-%05d", mg.dir, r) }

// open opens a staged file and charges its read to the calling task.
func (mg *mrGraph[V]) open(name string) (*dfs.File, error) {
	f, err := mg.c.FS().Open(name)
	if err != nil {
		return nil, err
	}
	mg.c.Metrics().DiskBytesRead.Add(f.Size())
	return f, nil
}

// stageMapReduce runs the staging job and its write wave (see the top of
// the file).
func stageMapReduce[V any](g *Graph[V], initial func(int64) V) (*mrGraph[V], error) {
	c := g.s.Handle().(*mapreduce.Cluster)
	in, err := dataflow.MapReduceInputOf(g.edges)
	if err != nil {
		return nil, err
	}
	mg := &mrGraph[V]{
		c:          c,
		dir:        fmt.Sprintf("dataflow/graph-%d", g.edges.Node().ID),
		parts:      c.DefaultReduces(),
		width:      core.ExecBatch(c.Conf()),
		edgeCodec:  serde.Of[datagen.Edge](c.Style()),
		stateCodec: serde.OfPair[int64, mrVertex[V]](c.Style()),
	}
	c.Metrics().CodecFallbacks.Add(int64(mg.edgeCodec.Fallbacks + mg.stateCodec.Fallbacks))
	// The identity reduce hands the wave every edge in source order, a
	// vertex's out-edges in map-task order.
	edges, err := mapreduce.Run(c, mapreduce.Job[datagen.Edge, int64, int64]{
		Name:    "StageGraph",
		Reduces: mg.parts,
		Map:     func(e datagen.Edge, emit func(int64, int64)) { emit(e.Src, e.Dst) },
	}, in)
	if err != nil {
		return nil, err
	}
	err = mg.wave("StageGraph-write", func(r int) error {
		recs := edges.Partitions[r]
		ew := blockWriter[datagen.Edge]{codec: mg.edgeCodec, width: mg.width}
		sw := blockWriter[core.Pair[int64, mrVertex[V]]]{codec: mg.stateCodec, width: mg.width}
		for i, kv := range recs {
			ew.add(datagen.Edge{Src: kv.Key, Dst: kv.Value})
			if i == 0 || recs[i-1].Key != kv.Key {
				sw.add(core.KV(kv.Key, mrVertex[V]{Val: initial(kv.Key), Active: true}))
			}
		}
		ew.commit(c, mg.edgeFile(r))
		sw.commit(c, mg.stateFile(r))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mg, nil
}

// wave runs fn(r) for every partition r as one task on r's node: the
// lowering's map-only steps, which write the staged files. A panic in fn
// (initial and vprog run here) fails the wave with an error naming the task.
func (mg *mrGraph[V]) wave(name string, fn func(r int) error) error {
	defer mg.c.Timeline().StartSpan(name)()
	tasks := make([]cluster.Task, mg.parts)
	for r := range tasks {
		tasks[r] = cluster.Task{Node: mg.c.Runtime().NodeFor(r), Fn: func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("task %d panicked: %v", r, p)
				}
			}()
			mg.c.Metrics().TasksLaunched.Add(1)
			return fn(r)
		}}
	}
	if err := mg.c.Runtime().RunTasks(tasks); err != nil {
		return fmt.Errorf("graph: mapreduce %s: %w", name, err)
	}
	return nil
}

// triplets is the superstep job's input: map task m merge-joins
// edges/part-m with state/part-m, both in id order, and yields an edge with
// its source's value for every active source, exec.batch.size at a time.
func (mg *mrGraph[V]) triplets(m int, yield func([]mrTriplet[V]) error) error {
	ef, err := mg.open(mg.edgeFile(m))
	if err != nil {
		return err
	}
	sf, err := mg.open(mg.stateFile(m))
	if err != nil {
		return err
	}
	states := blockReader[core.Pair[int64, mrVertex[V]]]{f: sf, codec: mg.stateCodec, width: mg.width}
	var st core.Pair[int64, mrVertex[V]]
	have := false
	out := make([]mrTriplet[V], 0, mg.width)
	err = eachBlock(ef, mg.edgeCodec, mg.width, func(edges []datagen.Edge) error {
		for _, e := range edges {
			for !have || st.Key < e.Src {
				var err error
				if st, have, err = states.next(); err != nil {
					return err
				}
				if !have {
					break
				}
			}
			if !have || st.Key != e.Src {
				return fmt.Errorf("graph: %s holds no state for vertex %d", mg.stateFile(m), e.Src)
			}
			if !st.Value.Active {
				continue
			}
			if out = append(out, mrTriplet[V]{Src: e.Src, Val: st.Value.Val, Dst: e.Dst}); len(out) == cap(out) {
				if err := yield(out); err != nil {
					return err
				}
				out = out[:0]
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return yield(out)
}

// messageJob runs one message round as a job: send sees every edge whose
// source is active, and each map task folds its messages per destination
// with merge. With reduce the reducers fold them once more, one message per
// destination; without, the output keeps every map task's message, in key
// order per partition.
func messageJob[V, X any](mg *mrGraph[V], name string,
	send func(t mrTriplet[V], emit func(int64, X)),
	merge func(X, X) X, reduce bool) (*mapreduce.Output[int64, X], error) {

	fold := foldWith(merge)
	job := mapreduce.Job[mrTriplet[V], int64, X]{
		Name:    name,
		Reduces: mg.parts,
		Map:     send,
		Combine: func(_ int64, vs []X) X { return fold(vs) },
	}
	if reduce {
		job.Reduce = func(k int64, vs []X, emit func(int64, X)) { emit(k, fold(vs)) }
	}
	return mapreduce.Run(mg.c, job, mapreduce.SplitsInput(mg.c, mg.parts, mg.triplets, mg.c.Runtime().NodeFor, 0))
}

func pregelMapReduce[V, M any](g *Graph[V],
	initial func(int64) V,
	vprog func(int64, V, M) (V, bool),
	sendMsg func(int64, V, int64) (M, bool),
	mergeMsg func(M, M) M,
	maxIter int) (map[int64]V, int, error) {

	mg, err := stageMapReduce(g, initial)
	if err != nil {
		return nil, 0, err
	}
	marked := func(a, b mrMsg[M]) mrMsg[M] {
		switch {
		case !a.Sent:
			return b
		case !b.Sent:
			return a
		}
		return mrMsg[M]{Msg: mergeMsg(a.Msg, b.Msg), Sent: true}
	}
	supersteps := 0
	// The first job also carries a marker along every edge that sends
	// nothing, the only way a vertex that is never a source becomes known;
	// it runs even when maxIter is 0. The later ones carry plain messages:
	// the marker flag makes every message a larger record, ≈ 10 % of a job.
	err = mapreduce.Iterate(mg.c, max(maxIter, 1), func(round int) error {
		name := fmt.Sprintf("Pregel#%d", round+1)
		var delivered int64
		var err error
		if round == 0 {
			delivered, err = superstep(mg, name, func(t mrTriplet[V], emit func(int64, mrMsg[M])) {
				if maxIter > 0 {
					if m, ok := sendMsg(t.Src, t.Val, t.Dst); ok {
						emit(t.Dst, mrMsg[M]{Msg: m, Sent: true})
						return
					}
				}
				emit(t.Dst, mrMsg[M]{})
			}, marked, func(x mrMsg[M]) (M, bool) { return x.Msg, x.Sent }, initial, vprog)
		} else {
			delivered, err = superstep(mg, name, func(t mrTriplet[V], emit func(int64, M)) {
				if m, ok := sendMsg(t.Src, t.Val, t.Dst); ok {
					emit(t.Dst, m)
				}
			}, mergeMsg, func(m M) (M, bool) { return m, true }, initial, vprog)
		}
		if err != nil {
			return err
		}
		if delivered == 0 {
			return errConverged
		}
		supersteps++
		return nil
	})
	if err != nil && !errors.Is(err, errConverged) {
		return nil, supersteps, err
	}

	// The driver reads the final state files back, the job's result.
	files := make([]*dfs.File, mg.parts)
	blocks := 0
	for r := range files {
		if files[r], err = mg.open(mg.stateFile(r)); err != nil {
			return nil, supersteps, err
		}
		blocks += files[r].NumParts()
	}
	verts := make(map[int64]V, blocks*mg.width)
	for _, sf := range files {
		err := eachBlock(sf, mg.stateCodec, mg.width, func(states []core.Pair[int64, mrVertex[V]]) error {
			for _, st := range states {
				verts[st.Key] = st.Value.Val
			}
			return nil
		})
		if err != nil {
			return nil, supersteps, err
		}
	}
	mg.c.Metrics().DriverRecords.Add(int64(len(verts)))
	return verts, supersteps, nil
}

// superstep runs one superstep: the message job, whose map tasks send X
// records along the edges of active sources, then the apply wave. It
// returns how many vertices the wave delivered messages to.
func superstep[V, M, X any](mg *mrGraph[V], name string,
	send func(t mrTriplet[V], emit func(int64, X)),
	merge func(X, X) X, unwrap func(X) (M, bool),
	initial func(int64) V, vprog func(int64, V, M) (V, bool)) (int64, error) {

	msgs, err := messageJob(mg, name, send, merge, false)
	if err != nil {
		return 0, err
	}
	var delivered atomic.Int64
	err = mg.wave(name+"-apply", func(r int) error {
		n, err := applyMessages(mg, r, msgs.Partitions[r], merge, unwrap, initial, vprog)
		delivered.Add(n)
		return err
	})
	return delivered.Load(), err
}

// applyMessages is partition r's apply step. It walks state/part-r and r's
// messages, both in id order: a destination the state does not hold yet
// joins it at initial(id); a vertex with messages folds them with merge and
// applies vprog, staying active iff vprog reports a change; every other
// vertex goes inactive. It writes the next state/part-r and returns how many
// vertices it delivered messages to (a marker unwraps to none).
func applyMessages[V, M, X any](mg *mrGraph[V], r int, msgs []core.Pair[int64, X],
	merge func(X, X) X, unwrap func(X) (M, bool),
	initial func(int64) V, vprog func(int64, V, M) (V, bool)) (int64, error) {

	sf, err := mg.open(mg.stateFile(r))
	if err != nil {
		return 0, err
	}
	next := blockWriter[core.Pair[int64, mrVertex[V]]]{codec: mg.stateCodec, width: mg.width}
	var delivered int64
	i := 0
	// apply writes id's next state, folding the messages at msgs[i:] that
	// are addressed to it.
	apply := func(id int64, val V) {
		v := mrVertex[V]{Val: val}
		if i < len(msgs) && msgs[i].Key == id {
			x := msgs[i].Value
			for i++; i < len(msgs) && msgs[i].Key == id; i++ {
				x = merge(x, msgs[i].Value)
			}
			if m, ok := unwrap(x); ok {
				v.Val, v.Active = vprog(id, val, m)
				delivered++
			}
		}
		next.add(core.KV(id, v))
	}
	err = eachBlock(sf, mg.stateCodec, mg.width, func(states []core.Pair[int64, mrVertex[V]]) error {
		for _, st := range states {
			for i < len(msgs) && msgs[i].Key < st.Key {
				apply(msgs[i].Key, initial(msgs[i].Key))
			}
			apply(st.Key, st.Value.Val)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for i < len(msgs) {
		apply(msgs[i].Key, initial(msgs[i].Key))
	}
	next.commit(mg.c, mg.stateFile(r))
	return delivered, nil
}

func aggregateMapReduce[V, M any](g *Graph[V],
	initial func(int64) V,
	send func(int64, V, int64) []Msg[M],
	mergeMsg func(M, M) M) (map[int64]M, error) {

	mg, err := stageMapReduce(g, initial)
	if err != nil {
		return nil, err
	}
	out, err := messageJob(mg, "AggregateMessages",
		func(t mrTriplet[V], emit func(int64, M)) {
			for _, m := range send(t.Src, t.Val, t.Dst) {
				emit(m.To, m.Value)
			}
		},
		mergeMsg, true)
	if err != nil {
		return nil, err
	}
	merged := make(map[int64]M)
	for _, part := range out.Partitions {
		for _, kv := range part {
			merged[kv.Key] = kv.Value
		}
	}
	mg.c.Metrics().DriverRecords.Add(int64(len(merged)))
	return merged, nil
}

// blockWriter encodes records into codec blocks of at most width records,
// and commits them as a file with one dfs part per block: a reader decodes
// the file block by block (eachBlock, blockReader).
type blockWriter[T any] struct {
	codec  serde.Codec[T]
	width  int
	blocks [][]byte
	n      int // records in the last block
}

func (w *blockWriter[T]) add(v T) {
	if len(w.blocks) == 0 || w.n == w.width {
		w.blocks = append(w.blocks, nil)
		w.n = 0
	}
	last := len(w.blocks) - 1
	if w.n == 0 {
		// A block is sized from its first record's encoding, the way the
		// sink sizes a partition: one allocation for fixed-width records.
		first := w.codec.Encode(nil, v)
		w.blocks[last] = append(make([]byte, 0, len(first)*w.width), first...)
	} else {
		w.blocks[last] = w.codec.Encode(w.blocks[last], v)
	}
	w.n++
}

// commit stores the blocks under name and charges the write.
func (w *blockWriter[T]) commit(c *mapreduce.Cluster, name string) {
	f := c.FS().WriteParts(name, w.blocks)
	c.Metrics().DiskBytesWritten.Add(f.Size())
}

// eachBlock decodes a blockWriter's file one block at a time and hands each
// to fn.
func eachBlock[T any](f *dfs.File, codec serde.Codec[T], width int, fn func([]T) error) error {
	for p := 0; p < f.NumParts(); p++ {
		recs, err := serde.DecodeAllN(codec, f.Part(p), width)
		if err != nil {
			return err
		}
		if err := fn(recs); err != nil {
			return err
		}
	}
	return nil
}

// blockReader is eachBlock as a cursor, for the side of a merge join that
// is pulled.
type blockReader[T any] struct {
	f     *dfs.File
	codec serde.Codec[T]
	width int
	part  int // blocks decoded
	recs  []T
	i     int
}

// next returns the file's next record; ok is false past the last one.
func (r *blockReader[T]) next() (v T, ok bool, err error) {
	for r.i == len(r.recs) {
		if r.part == r.f.NumParts() {
			return v, false, nil
		}
		if r.recs, err = serde.DecodeAllN(r.codec, r.f.Part(r.part), r.width); err != nil {
			return v, false, err
		}
		r.part, r.i = r.part+1, 0
	}
	r.i++
	return r.recs[r.i-1], true, nil
}
