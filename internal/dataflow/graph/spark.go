package graph

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/engine/spark"
)

// The spark lowering: GraphX's property graph and its Pregel. The edge
// Dataset lowers once to a cached RDD; the edges are keyed by source and the
// vertices by id, both under one hash partitioner over spark.edge.partitions
// — the parameter whose mis-setting costs up to 50% in the paper's Section
// VI-E. Pregel runs loop-unrolled supersteps, a fresh scheduled job per
// round, the iteration model the paper contrasts with Flink's native
// operators. Because the engine's RDDs know their partitioner, every join of
// vertices with edges is a narrow dependency, and a superstep shuffles only
// its messages, as GraphX's does.

// sparkGraph is GraphX's Graph.fromEdges over the lowered edge RDD: the
// edges as source → destination pairs, partitioned by source and cached, and
// the vertex set derived from their endpoints under the same partitioner,
// every vertex at V's zero value, cached.
type sparkGraph[V any] struct {
	vertices *spark.RDD[core.Pair[int64, V]]
	edges    *spark.RDD[core.Pair[int64, int64]]
	part     core.Partitioner[int64]
	parts    int
}

func sparkGraphOf[V any](g *Graph[V]) (*sparkGraph[V], error) {
	ctx := g.s.Handle().(*spark.Context)
	rdd, err := dataflow.SparkRDDOf(g.edges)
	if err != nil {
		return nil, err
	}
	parts := ctx.Conf().SparkEdgePartitions
	if parts == 0 {
		parts = ctx.DefaultParallelism()
	}
	sg := &sparkGraph[V]{part: core.NewHashPartitioner[int64](parts), parts: parts}
	sg.edges = spark.PartitionBy(spark.MapToPair(rdd, func(e datagen.Edge) core.Pair[int64, int64] {
		return core.KV(e.Src, e.Dst)
	}), sg.part).Cache()

	ends := spark.MapPartitions(sg.edges, func(es []core.Pair[int64, int64]) []core.Pair[int64, bool] {
		out := make([]core.Pair[int64, bool], 0, 2*len(es))
		for _, e := range es {
			out = append(out, core.KV(e.Key, true), core.KV(e.Value, true))
		}
		return out
	})
	ids := spark.ReduceByKey(ends, func(a, _ bool) bool { return a }, parts)
	var zero V
	sg.vertices = spark.MapValues(ids, func(int64, bool) V { return zero }).Cache()
	return sg, nil
}

// vertexState carries the vertex value plus the Pregel activity flag. Its
// fields are exported so the derived codecs encode cached records.
type vertexState[V any] struct {
	VD     V
	Active bool
}

// sparkPregel is one Pregel call's physical plan on spark: the graph, its
// out-edges grouped by source once per call under the graph's partitioner
// and cached, and the vertex program. Its builders make a superstep's RDDs;
// the superstep loop and PregelPlan both call them.
type sparkPregel[V, M any] struct {
	g        *sparkGraph[V]
	outEdges *spark.RDD[core.Pair[int64, []int64]]
	vprog    func(int64, V, M) (V, bool)
	sendMsg  func(int64, V, int64) (M, bool)
	mergeMsg func(M, M) M
}

func newSparkPregel[V, M any](g *Graph[V],
	vprog func(int64, V, M) (V, bool),
	sendMsg func(int64, V, int64) (M, bool),
	mergeMsg func(M, M) M) (*sparkPregel[V, M], error) {

	sg, err := sparkGraphOf(g)
	if err != nil {
		return nil, err
	}
	return &sparkPregel[V, M]{
		g:        sg,
		outEdges: spark.GroupByKey(sg.edges, sg.parts).Cache(),
		vprog:    vprog, sendMsg: sendMsg, mergeMsg: mergeMsg,
	}, nil
}

// initialStates is the first generation of vertex states: every vertex at
// initial(id) and active, cached.
func (p *sparkPregel[V, M]) initialStates(initial func(int64) V) *spark.RDD[core.Pair[int64, vertexState[V]]] {
	init := spark.MapValues(p.g.vertices, func(id int64, _ V) V { return initial(id) })
	return spark.MapValues(init, func(_ int64, vd V) vertexState[V] {
		return vertexState[V]{VD: vd, Active: true}
	}).Cache()
}

// messages is a superstep's scatter: a narrow cogroup of the active vertices
// with their out-edges, sendMsg along every out-edge, and ReduceByKey(merge)
// under the graph's partitioner — the superstep's one shuffle, combined
// map-side. As in GraphX, the messages are cached.
func (p *sparkPregel[V, M]) messages(verts *spark.RDD[core.Pair[int64, vertexState[V]]]) *spark.RDD[core.Pair[int64, M]] {
	active := spark.Filter(verts, func(v core.Pair[int64, vertexState[V]]) bool { return v.Value.Active })
	sent := spark.MapPartitions(spark.CoGroup(active, p.outEdges, p.g.part),
		func(in []core.Pair[int64, spark.CoGrouped[vertexState[V], []int64]]) []core.Pair[int64, M] {
			n := 0
			for _, v := range in {
				for _, dsts := range v.Value.Right {
					n += len(v.Value.Left) * len(dsts)
				}
			}
			msgs := make([]core.Pair[int64, M], 0, n)
			for _, v := range in {
				for _, st := range v.Value.Left {
					for _, dsts := range v.Value.Right {
						for _, dst := range dsts {
							if m, ok := p.sendMsg(v.Key, st.VD, dst); ok {
								msgs = append(msgs, core.KV(dst, m))
							}
						}
					}
				}
			}
			return msgs
		})
	return spark.ReduceByKey(sent, p.mergeMsg, p.g.parts).Cache()
}

// apply is a superstep's gather: a narrow cogroup of the vertex states with
// the merged messages (GraphX's outerJoinVertices), then vprog through
// MapValues, cached as the next generation of states. Every message travels
// along an edge and every edge endpoint is a vertex, so each cogrouped id
// has exactly one state on the left.
func (p *sparkPregel[V, M]) apply(verts *spark.RDD[core.Pair[int64, vertexState[V]]],
	msgs *spark.RDD[core.Pair[int64, M]]) *spark.RDD[core.Pair[int64, vertexState[V]]] {
	return spark.MapValues(spark.CoGroup(verts, msgs, p.g.part),
		func(id int64, v spark.CoGrouped[vertexState[V], M]) vertexState[V] {
			st := v.Left[0]
			if len(v.Right) == 0 {
				return vertexState[V]{VD: st.VD, Active: false}
			}
			vd, changed := p.vprog(id, st.VD, v.Right[0])
			return vertexState[V]{VD: vd, Active: changed}
		}).Cache()
}

// run is the superstep loop, a regular for-loop that schedules fresh stages
// over the cached RDDs every round (loop unrolling). It ends when no
// messages flow or after maxIter rounds, and returns the last generation of
// states and the executed superstep count. As in GraphX, the job that counts
// the next superstep's messages is the one that computes this superstep's
// states: one job per superstep.
func (p *sparkPregel[V, M]) run(verts *spark.RDD[core.Pair[int64, vertexState[V]]], maxIter int) (*spark.RDD[core.Pair[int64, vertexState[V]]], int, error) {
	defer p.outEdges.Unpersist()
	var prevVerts *spark.RDD[core.Pair[int64, vertexState[V]]]
	var prevMsgs *spark.RDD[core.Pair[int64, M]]
	iterations := 0
	for {
		// One job: it materialises verts (the previous superstep's states)
		// and, unless the budget is spent, this superstep's messages.
		var msgs *spark.RDD[core.Pair[int64, M]]
		var n int64
		var err error
		if iterations < maxIter {
			msgs = p.messages(verts)
			n, err = spark.Count(msgs)
		} else {
			_, err = spark.Count(verts)
		}
		if err != nil {
			return nil, iterations, fmt.Errorf("graph: spark pregel superstep %d: %w", iterations+1, err)
		}
		if prevVerts != nil {
			prevVerts.Unpersist()
			prevMsgs.Unpersist()
		}
		if n == 0 {
			if msgs != nil {
				msgs.Unpersist()
			}
			return verts, iterations, nil
		}
		iterations++
		prevVerts, prevMsgs = verts, msgs
		verts = p.apply(verts, msgs)
	}
}

func pregelSpark[V, M any](g *Graph[V],
	initial func(int64) V,
	vprog func(int64, V, M) (V, bool),
	sendMsg func(int64, V, int64) (M, bool),
	mergeMsg func(M, M) M,
	maxIter int) (map[int64]V, int, error) {

	p, err := newSparkPregel(g, vprog, sendMsg, mergeMsg)
	if err != nil {
		return nil, 0, err
	}
	final, supersteps, err := p.run(p.initialStates(initial), maxIter)
	if err != nil {
		return nil, supersteps, err
	}
	verts, err := spark.CollectAsMap(spark.MapValues(final, func(_ int64, st vertexState[V]) V { return st.VD }))
	g.s.Metrics().DriverRecords.Add(int64(len(verts)))
	return verts, supersteps, err
}
