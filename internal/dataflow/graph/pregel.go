package graph

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/engine/flink"
	"repro/internal/engine/spark"
)

// Pregel runs the vertex-centric message-passing loop on the session's
// backend and returns the final vertex values plus the number of executed
// supersteps. The semantics are GraphX's Pregel on every engine:
//
//   - every vertex starts at initial(id) and active;
//   - each superstep, active vertices send a message along each out-edge
//     via sendMsg (ok=false sends nothing), messages addressed to the same
//     vertex are combined with mergeMsg, and each messaged vertex updates
//     through vprog — staying active only if vprog reports a change;
//   - unmessaged vertices go inactive and keep their value;
//   - the loop converges when no messages flow, or stops after maxIter.
//
// A superstep counts iff at least one merged message was delivered, so the
// returned count is identical across backends even though each engine
// detects convergence its own way (an empty message count on spark, a
// drained workset on flink, an empty job output on mapreduce).
func Pregel[V, M any](g *Graph[V],
	initial func(id int64) V,
	vprog func(id int64, val V, msg M) (V, bool),
	sendMsg func(src int64, val V, dst int64) (M, bool),
	mergeMsg func(a, b M) M,
	maxIter int) (map[int64]V, int, error) {

	switch g.s.Kind() {
	case dataflow.Spark:
		return pregelSpark(g, initial, vprog, sendMsg, mergeMsg, maxIter)
	case dataflow.Flink:
		return pregelFlink(g, initial, vprog, sendMsg, mergeMsg, maxIter)
	default:
		return pregelMapReduce(g, initial, vprog, sendMsg, mergeMsg, maxIter)
	}
}

// PregelPlan renders, without running it, the physical plan Pregel runs on
// the session's engine for this vertex program, with one symbolic superstep
// — a graph row of the paper's Table I. It is built by the builders the
// superstep loop uses: the superstep's RDDs on spark, the delta iteration on
// flink. MapReduce's chained jobs have no plan rendering; there it returns
// an error.
func PregelPlan[V, M any](g *Graph[V], workload string,
	initial func(id int64) V,
	vprog func(id int64, val V, msg M) (V, bool),
	sendMsg func(src int64, val V, dst int64) (M, bool),
	mergeMsg func(a, b M) M) (*core.Plan, error) {

	switch g.s.Kind() {
	case dataflow.Spark:
		p, err := newSparkPregel(g, vprog, sendMsg, mergeMsg)
		if err != nil {
			return nil, err
		}
		verts := p.initialStates(initial)
		return spark.PlanOf(workload, spark.SinkOf(p.apply(verts, p.messages(verts)), "Count (per superstep)")), nil
	case dataflow.Flink:
		edges, err := dataflow.FlinkDataSetOf(g.edges)
		if err != nil {
			return nil, err
		}
		final := deltaPregelFlink(edges, initial, vprog, sendMsg, mergeMsg, 1, new(atomic.Int64))
		return flink.PlanOf(workload, flink.SinkOf(final, "Collect")), nil
	default:
		return nil, fmt.Errorf("graph: no Pregel plan rendering on %s", g.s.Name())
	}
}
