package graph

import (
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/engine/spark"
	"repro/internal/graph/graphxlike"
)

// The spark lowering: GraphX-like aggregate-messages rounds. The edge
// Dataset lowers once to a cached RDD, graphxlike builds the property
// graph — edges keyed by source and vertices keyed by id, both under one
// hash partitioner over spark.edge.partitions — and its Pregel runs the
// loop-unrolled supersteps, a fresh scheduled job per round, the iteration
// model the paper contrasts with Flink's native operators. Joins of states
// with edges are narrow, so a superstep shuffles only its messages.

func sparkGraph[V any](g *Graph[V]) (*graphxlike.Graph[V], error) {
	ctx := g.s.Backend().Handle().(*spark.Context)
	rdd, err := dataflow.SparkRDDOf(g.edges)
	if err != nil {
		return nil, err
	}
	var zero V
	return graphxlike.FromEdges(ctx, rdd, zero), nil
}

func pregelSpark[V, M any](g *Graph[V],
	initial func(int64) V,
	vprog func(int64, V, M) (V, bool),
	sendMsg func(int64, V, int64) (M, bool),
	mergeMsg func(M, M) M,
	maxIter int) (map[int64]V, int, error) {

	gg, err := sparkGraph(g)
	if err != nil {
		return nil, 0, err
	}
	init := graphxlike.MapVertices(gg, func(id int64, _ V) V { return initial(id) })
	final, supersteps, err := graphxlike.Pregel(init, maxIter, sendMsg, mergeMsg, vprog)
	if err != nil {
		return nil, supersteps, err
	}
	verts, err := spark.CollectAsMap(final.Vertices())
	g.s.Metrics().DriverRecords.Add(int64(len(verts)))
	return verts, supersteps, err
}

func aggregateSpark[V, M any](g *Graph[V],
	initial func(int64) V,
	send func(int64, V, int64) []Msg[M],
	mergeMsg func(M, M) M) (map[int64]M, error) {

	gg, err := sparkGraph(g)
	if err != nil {
		return nil, err
	}
	// The states keep the vertices' partitioner and the edges have it, so
	// the join is narrow and the messages are the round's one shuffle.
	parts := gg.Edges().NumPartitions()
	states := spark.MapValues(gg.Vertices(), func(id int64, _ V) V { return initial(id) })
	msgs := spark.MapPartitions(spark.Join(states, gg.Edges(), parts),
		func(in []core.Pair[int64, spark.Joined[V, int64]]) []core.Pair[int64, M] {
			var out []core.Pair[int64, M]
			for _, p := range in {
				for _, m := range send(p.Key, p.Value.Left, p.Value.Right) {
					out = append(out, core.KV(m.To, m.Value))
				}
			}
			return out
		})
	merged, err := spark.CollectAsMap(spark.ReduceByKey(msgs, mergeMsg, parts))
	g.s.Metrics().DriverRecords.Add(int64(len(merged)))
	return merged, err
}
