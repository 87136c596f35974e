package graph

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/engine/flink"
)

// The flink lowering: a Gelly-like vertex-centric iteration on the
// engine's native delta iteration — the solution set (all vertex values)
// lives in managed memory, the workset carries only vertices whose value
// changed last superstep, and the step dataflow is scheduled once. The
// paper credits exactly this operator for Flink's win on connected
// components (and its managed-memory limit for the Table VII failures).
// The edges are the join's static input: the first superstep partitions
// them and builds their hash tables, which every later superstep probes in
// place. The scatter and the apply are per-batch kernels, one output slice
// per batch.

// flinkVertices derives the vertex set with initial values inside the
// flink dataflow (Gelly's fromDataSet with a vertex initializer).
func flinkVertices[V any](edges *flink.DataSet[datagen.Edge], initial func(int64) V) *flink.DataSet[core.Pair[int64, V]] {
	ids := flink.MapPartition(edges, func(es []datagen.Edge) []int64 {
		out := make([]int64, 0, 2*len(es))
		for _, e := range es {
			out = append(out, e.Src, e.Dst)
		}
		return out
	})
	distinct := flink.Distinct(ids, func(id int64) int64 { return id })
	return flink.Map(distinct, func(id int64) core.Pair[int64, V] {
		return core.KV(id, initial(id))
	})
}

// messagesFlink is one message round: verts joined with their out-edges,
// the scatter as a per-batch kernel (send appends one edge's messages to
// the batch's one output slice), and the messages merged per destination.
func messagesFlink[V, M any](verts *flink.DataSet[core.Pair[int64, V]], edges *flink.DataSet[datagen.Edge],
	send func(out []core.Pair[int64, M], src int64, v V, dst int64) []core.Pair[int64, M],
	mergeMsg func(M, M) M) *flink.DataSet[core.Pair[int64, M]] {
	joined := flink.Join(verts, edges,
		func(p core.Pair[int64, V]) int64 { return p.Key },
		func(e datagen.Edge) int64 { return e.Src },
		0)
	msgs := flink.MapPartition(joined, func(js []core.Pair[int64, flink.Joined[core.Pair[int64, V], datagen.Edge]]) []core.Pair[int64, M] {
		out := make([]core.Pair[int64, M], 0, len(js))
		for _, j := range js {
			out = send(out, j.Key, j.Value.Left.Value, j.Value.Right.Dst)
		}
		return out
	})
	return flink.Reduce(
		flink.GroupBy(msgs, func(p core.Pair[int64, M]) int64 { return p.Key }),
		func(a, b core.Pair[int64, M]) core.Pair[int64, M] {
			return core.KV(a.Key, mergeMsg(a.Value, b.Value))
		})
}

// deltaPregelFlink builds Pregel as a native delta iteration over the
// vertices with initial values: the solution set and the first workset are
// one DataSet, a superstep's step joins the workset with the edges, and
// supersteps counts the supersteps that deliver a message. The run path and
// PregelPlan both build it here.
func deltaPregelFlink[V, M any](edges *flink.DataSet[datagen.Edge],
	initial func(int64) V,
	vprog func(int64, V, M) (V, bool),
	sendMsg func(int64, V, int64) (M, bool),
	mergeMsg func(M, M) M,
	maxIter int, supersteps *atomic.Int64) *flink.DataSet[core.Pair[int64, V]] {

	verts := flinkVertices(edges, initial)
	return flink.IterateDelta(verts, verts, maxIter,
		func(ws *flink.DataSet[core.Pair[int64, V]], lookup func(int64) (V, bool)) (*flink.DataSet[core.Pair[int64, V]], *flink.DataSet[core.Pair[int64, V]]) {
			// Scatter: workset vertices message their out-neighbors.
			merged := messagesFlink(ws, edges,
				func(out []core.Pair[int64, M], src int64, v V, dst int64) []core.Pair[int64, M] {
					if m, ok := sendMsg(src, v, dst); ok {
						out = append(out, core.KV(dst, m))
					}
					return out
				}, mergeMsg)
			// Gather: apply the vertex program against the solution set;
			// only changes enter the delta (and the next workset). The
			// superstep counts on the first delivered message, keeping the
			// count aligned with spark's msgCount>0 rule even when a
			// non-empty workset generates no messages.
			counted := new(atomic.Bool)
			changed := flink.MapPartition(merged, func(ps []core.Pair[int64, M]) []core.Pair[int64, V] {
				if len(ps) > 0 && counted.CompareAndSwap(false, true) {
					supersteps.Add(1)
				}
				out := make([]core.Pair[int64, V], 0, len(ps))
				for _, p := range ps {
					cur, ok := lookup(p.Key)
					if !ok {
						continue
					}
					if v, ch := vprog(p.Key, cur, p.Value); ch {
						out = append(out, core.KV(p.Key, v))
					}
				}
				return out
			})
			return changed, changed
		})
}

func pregelFlink[V, M any](g *Graph[V],
	initial func(int64) V,
	vprog func(int64, V, M) (V, bool),
	sendMsg func(int64, V, int64) (M, bool),
	mergeMsg func(M, M) M,
	maxIter int) (map[int64]V, int, error) {

	edges, err := dataflow.FlinkDataSetOf(g.edges)
	if err != nil {
		return nil, 0, err
	}
	var supersteps atomic.Int64
	out, err := collectFlink(g.s, deltaPregelFlink(edges, initial, vprog, sendMsg, mergeMsg, maxIter, &supersteps))
	return out, int(supersteps.Load()), err
}

// collectFlink collects vertex-keyed pairs into a map on the driver, which
// counts them as records it handles.
func collectFlink[V any](s *dataflow.Session, ds *flink.DataSet[core.Pair[int64, V]]) (map[int64]V, error) {
	pairs, err := flink.Collect(ds)
	if err != nil {
		return nil, err
	}
	s.Metrics().DriverRecords.Add(int64(len(pairs)))
	out := make(map[int64]V, len(pairs))
	for _, p := range pairs {
		out[p.Key] = p.Value
	}
	return out, nil
}
