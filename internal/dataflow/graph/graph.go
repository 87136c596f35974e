// Package graph is the engine-agnostic, Pregel-style graph subsystem of
// the dataflow layer: a Graph[V] built from an edge Dataset and a
// vertex-centric Pregel loop with convergence detection. One logical
// definition lowers onto each backend's physical idiom — the contrast the
// paper measures in its graph experiments (Tables IV–VII, Figures 12–17):
//
//   - spark: GraphX's Pregel, message rounds built from cogroups and
//     reductions, loop-unrolled into per-superstep jobs over cached RDDs
//     (spark.go). The edges (keyed by source) and the vertex states share
//     one hash partitioner, so joining them is narrow and a superstep's only
//     shuffle is its combined messages — the same one shuffle a mapreduce
//     superstep runs;
//   - flink: a Gelly-like native delta iteration — the solution set stays
//     resident in managed memory and the shrinking workset carries only
//     vertices whose value changed last superstep. The edges are the
//     superstep join's static input, so they are partitioned and built into
//     hash tables once per iteration, and a superstep shuffles the workset
//     and the combined messages;
//   - mapreduce: chained DFS jobs, as Hadoop runs them. One job stages the
//     edges, partitioned by source like the vertex states, and every
//     superstep is an independent job whose map tasks re-read their edge
//     and state partitions from the DFS and join them, then one task per
//     partition applies vprog and writes the next state file. The driver
//     only schedules and reads a counter; the repeated DFS round trip and
//     job barrier are Hadoop's iteration cost (the several-fold iterative
//     graph gap of the related work).
package graph

import (
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
)

// Graph is a property graph over one dataflow session: edges are the
// Dataset the graph was built from, vertices are derived from the edge
// endpoints and carry V-typed values assigned by each operation's initial
// function. V is fixed at construction so Pregel's type parameters infer
// from the graph.
type Graph[V any] struct {
	s     *dataflow.Session
	edges *dataflow.Dataset[datagen.Edge]
}

// FromEdges builds a graph from an edge Dataset, deriving the vertex set
// from edge endpoints (GraphX's Graph.fromEdges, Gelly's fromDataSet with
// a vertex initializer). The edge dataset is marked Cached(): Spark's
// lowering persists it across supersteps, Flink and MapReduce have no
// persistence control and re-run the producing pipeline per consumption —
// the Section VI-B asymmetry carried over to graphs.
func FromEdges[V any](edges *dataflow.Dataset[datagen.Edge]) *Graph[V] {
	return &Graph[V]{s: edges.Session(), edges: edges.Cached()}
}

// Undirected returns the graph with every edge present in both directions
// (GraphX's symmetrization, Gelly's getUndirected) — the view connected
// components runs on. The reversal is a dataflow FlatMap, so each backend
// pays for it in its own coin: Spark caches the doubled RDD, MapReduce
// re-reads and re-doubles per job.
func (g *Graph[V]) Undirected() *Graph[V] {
	both := dataflow.FlatMapAppend(g.edges, func(dst []datagen.Edge, e datagen.Edge) []datagen.Edge {
		return append(dst, e, datagen.Edge{Src: e.Dst, Dst: e.Src})
	}).Cached()
	return &Graph[V]{s: g.s, edges: both}
}

// OutDegrees returns the per-vertex out-degree map (GraphX's outDegrees,
// Gelly's outDegrees). Vertices with no out-edges are absent — callers
// treat missing as zero, like the engines' degree datasets. It runs as a
// keyed reduction through the unified API, so MapReduce pays a full
// Combine+Reduce job for what Spark answers from the cached edge RDD.
func (g *Graph[V]) OutDegrees() (map[int64]int64, error) {
	ones := dataflow.MapToPair(g.edges, func(e datagen.Edge) core.Pair[int64, int64] {
		return core.KV(e.Src, int64(1))
	})
	return dataflow.CollectAsMap(dataflow.ReduceByKey(ones, func(a, b int64) int64 { return a + b }))
}
