// Package graphxlike is a GraphX-style graph library on the spark engine,
// covering what the paper's graph experiments use: property graphs as
// vertex and edge RDDs, a Pregel loop implemented with cogroups and
// loop-unrolled iterations, PageRank (the standalone GraphX
// implementation) and ConnectedComponents.
//
// A graph's edges and vertices live under one hash partitioner over
// spark.edge.partitions partitions — the parameter whose mis-setting costs
// up to 50% in the paper's Section VI-E. The edges are keyed by source and
// cached; the vertices are keyed by id. Because the engine's RDDs know their
// partitioner, every join of vertices with edges is a narrow dependency,
// and a Pregel superstep shuffles only its messages, as GraphX's does.
package graphxlike

import (
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine/spark"
)

// Graph is a property graph: vertices carry VD, edges are unlabelled
// (weights are not needed by the paper's workloads).
type Graph[VD any] struct {
	vertices *spark.RDD[core.Pair[int64, VD]]
	// edges maps each edge's source to its destination. FromEdges places
	// them by partitioner(); a graph derived by symmetrized is not placed.
	edges     *spark.RDD[core.Pair[int64, int64]]
	edgeParts int
}

// FromEdges builds a graph from an edge RDD, deriving the vertex set from
// edge endpoints with the default vertex attribute — GraphX's
// Graph.fromEdges. The edges are keyed by source, partitioned by a hash
// partitioner over spark.edge.partitions (the paper's spark.edge.partition,
// defaulting to the context parallelism) and cached; the vertices are built
// under the same partitioner.
func FromEdges[VD any](ctx *spark.Context, edges *spark.RDD[datagen.Edge], defaultVD VD) *Graph[VD] {
	edgeParts := ctx.Conf().Int(core.SparkEdgePartitions, 0)
	if edgeParts <= 0 {
		edgeParts = ctx.DefaultParallelism()
	}
	g := &Graph[VD]{edgeParts: edgeParts}
	g.edges = spark.PartitionBy(spark.MapToPair(edges, func(e datagen.Edge) core.Pair[int64, int64] {
		return core.KV(e.Src, e.Dst)
	}), g.partitioner()).Cache()

	ends := spark.MapPartitions(g.edges, func(es []core.Pair[int64, int64]) []core.Pair[int64, bool] {
		out := make([]core.Pair[int64, bool], 0, 2*len(es))
		for _, e := range es {
			out = append(out, core.KV(e.Key, true), core.KV(e.Value, true))
		}
		return out
	})
	ids := spark.ReduceByKey(ends, func(a, _ bool) bool { return a }, edgeParts)
	g.vertices = spark.MapValues(ids, func(int64, bool) VD { return defaultVD }).Cache()
	return g
}

// partitioner is the hash partitioner the graph's vertices and edges live
// under.
func (g *Graph[VD]) partitioner() core.Partitioner[int64] {
	return core.NewHashPartitioner[int64](g.edgeParts)
}

// Vertices returns the vertex RDD.
func (g *Graph[VD]) Vertices() *spark.RDD[core.Pair[int64, VD]] { return g.vertices }

// Edges returns the edges as source → destination pairs.
func (g *Graph[VD]) Edges() *spark.RDD[core.Pair[int64, int64]] { return g.edges }

// NumVertices counts vertices (an action).
func (g *Graph[VD]) NumVertices() (int64, error) { return spark.Count(g.vertices) }

// NumEdges counts edges (an action).
func (g *Graph[VD]) NumEdges() (int64, error) { return spark.Count(g.edges) }

// OutDegrees returns per-vertex out-degree (GraphX's outDegrees). The edges
// are keyed by source, so the count runs within partitions.
func (g *Graph[VD]) OutDegrees() *spark.RDD[core.Pair[int64, int64]] {
	ones := spark.MapValues(g.edges, func(int64, int64) int64 { return 1 })
	return spark.ReduceByKey(ones, func(a, b int64) int64 { return a + b }, g.edgeParts)
}

// symmetrized returns the graph with every edge present in both
// directions, the undirected view connected-components algorithms use. The
// reversed edges are keyed by their old destination, so the union has no
// partitioner and Pregel partitions it once.
func (g *Graph[VD]) symmetrized() *Graph[VD] {
	reversed := spark.MapToPair(g.edges, func(e core.Pair[int64, int64]) core.Pair[int64, int64] {
		return core.KV(e.Value, e.Key)
	})
	return &Graph[VD]{
		vertices:  g.vertices,
		edges:     spark.Union(g.edges, reversed),
		edgeParts: g.edgeParts,
	}
}

// MapVertices transforms the vertex attributes in place (mapVertices); the
// vertices keep their partitioner.
func MapVertices[VD, VD2 any](g *Graph[VD], f func(int64, VD) VD2) *Graph[VD2] {
	return &Graph[VD2]{vertices: spark.MapValues(g.vertices, f), edges: g.edges, edgeParts: g.edgeParts}
}
