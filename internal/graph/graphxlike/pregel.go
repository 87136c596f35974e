package graphxlike

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine/spark"
)

// VertexState carries the vertex attribute plus the Pregel activity flag.
// Fields are exported so generic serializers can encode cached records.
type VertexState[VD any] struct {
	VD     VD
	Active bool
}

// Pregel runs a GraphX-style message-passing loop with Spark's iteration
// model: a regular for-loop where every superstep schedules fresh stages
// over cached RDDs (loop unrolling). The loop ends when no messages flow or
// after maxIter rounds; the number of executed supersteps is returned.
//
//   - scatter derives the message an active vertex sends along one
//     out-edge (ok=false sends nothing);
//   - merge combines messages addressed to the same vertex;
//   - apply integrates the merged message, returning the new attribute and
//     whether the vertex changed (only changed vertices scatter next).
//
// The physical plan is GraphX's. The edges are grouped by source once per
// call, under the graph's partitioner (partitioned first when they do not
// have it — a symmetrized graph's edges), and cached; the vertex states
// stay under the same partitioner from superstep to superstep. A superstep
// is then
//
//  1. a narrow cogroup of the active vertices with their out-edges,
//  2. scatter,
//  3. ReduceByKey(merge) under the graph's partitioner — the superstep's
//     one shuffle, combined map-side,
//  4. a narrow cogroup of the vertex states with the merged messages
//     (GraphX's outerJoinVertices),
//  5. apply through MapValues, cached as the next generation of states.
//
// As in GraphX, the messages are cached and counted, and the job that
// counts the next superstep's messages is the one that computes this
// superstep's states: one job per superstep.
func Pregel[VD any, M any](g *Graph[VD], maxIter int,
	scatter func(src int64, vd VD, dst int64) (M, bool),
	merge func(M, M) M,
	apply func(id int64, vd VD, msg M) (VD, bool)) (*Graph[VD], int, error) {

	part := g.partitioner()
	outEdges := spark.GroupByKey(spark.PartitionBy(g.edges, part), g.edgeParts).Cache()
	defer outEdges.Unpersist()

	messages := func(verts *spark.RDD[core.Pair[int64, VertexState[VD]]]) *spark.RDD[core.Pair[int64, M]] {
		active := spark.Filter(verts, func(p core.Pair[int64, VertexState[VD]]) bool { return p.Value.Active })
		sent := spark.MapPartitions(spark.CoGroup(active, outEdges, part),
			func(in []core.Pair[int64, spark.CoGrouped[VertexState[VD], []int64]]) []core.Pair[int64, M] {
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
								if m, ok := scatter(v.Key, st.VD, dst); ok {
									msgs = append(msgs, core.KV(dst, m))
								}
							}
						}
					}
				}
				return msgs
			})
		return spark.ReduceByKey(sent, merge, g.edgeParts).Cache()
	}
	// Every message travels along an edge and every edge endpoint is a
	// vertex, so each cogrouped id has exactly one state on the left.
	applied := func(id int64, v spark.CoGrouped[VertexState[VD], M]) VertexState[VD] {
		st := v.Left[0]
		if len(v.Right) == 0 {
			return VertexState[VD]{VD: st.VD, Active: false}
		}
		vd, changed := apply(id, st.VD, v.Right[0])
		return VertexState[VD]{VD: vd, Active: changed}
	}

	verts := spark.MapValues(g.vertices, func(_ int64, vd VD) VertexState[VD] {
		return VertexState[VD]{VD: vd, Active: true}
	}).Cache()
	var prevVerts *spark.RDD[core.Pair[int64, VertexState[VD]]]
	var prevMsgs *spark.RDD[core.Pair[int64, M]]
	iterations := 0
	for {
		// One job: it materialises verts (the previous superstep's states)
		// and, unless the budget is spent, this superstep's messages.
		var msgs *spark.RDD[core.Pair[int64, M]]
		var n int64
		var err error
		if iterations < maxIter {
			msgs = messages(verts)
			n, err = spark.Count(msgs)
		} else {
			_, err = spark.Count(verts)
		}
		if err != nil {
			return nil, iterations, fmt.Errorf("graphxlike: pregel superstep %d: %w", iterations+1, err)
		}
		if prevVerts != nil {
			prevVerts.Unpersist()
			prevMsgs.Unpersist()
		}
		if n == 0 {
			if msgs != nil {
				msgs.Unpersist()
			}
			break
		}
		iterations++
		prevVerts, prevMsgs = verts, msgs
		verts = spark.MapValues(spark.CoGroup(verts, msgs, part), applied).Cache()
	}

	outVerts := spark.MapValues(verts, func(_ int64, st VertexState[VD]) VD { return st.VD })
	return &Graph[VD]{vertices: outVerts, edges: g.edges, edgeParts: g.edgeParts}, iterations, nil
}
