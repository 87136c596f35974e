package workloads

import (
	"math"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dataflow/graph"
	"repro/internal/datagen"
)

// The graph workloads are defined ONCE against the Pregel-style
// internal/dataflow/graph subsystem and lowered per backend: GraphX-like
// loop-unrolled rounds on spark, a Gelly-like native delta iteration on
// flink, chained DFS jobs on mapreduce. Each Pregel program is defined once
// below; the run and its Table I row (*Plan) both use it.

// PRVertex is the PageRank vertex state of the unified graph workloads:
// current rank plus the out-degree the scatter divides by.
type PRVertex struct {
	Rank   float64
	OutDeg int64
}

// graphOf builds a V-valued graph over the session from an in-memory edge
// list (the experiments' R-MAT output).
func graphOf[V any](s *dataflow.Session, edges []datagen.Edge) *graph.Graph[V] {
	return graph.FromEdges[V](dataflow.FromSlice(s, edges, 0))
}

// PageRank runs the standalone PageRank for a fixed number of supersteps
// with damping 0.85 on the session's backend: a degree job first (the
// load phase), then rank = 0.15 + 0.85 × Σ incoming rank/outDegree per
// superstep. It returns the ranks and the executed superstep count.
// Pregel deactivation semantics apply (as in GraphX's standalone
// implementation): a vertex with no in-edges never receives a message, so
// it goes inactive after superstep 1 and keeps its initial rank 1.0 —
// identical on all three backends.
func PageRank(s *dataflow.Session, edges []datagen.Edge, iters int) (map[int64]float64, int, error) {
	g := graphOf[PRVertex](s, edges)
	degrees, err := g.OutDegrees()
	if err != nil {
		return nil, 0, err
	}
	verts, supersteps, err := graph.Pregel(g, rankInitial(degrees), rankVprog, rankSend, sumRanks, iters)
	if err != nil {
		return nil, supersteps, err
	}
	ranks := make(map[int64]float64, len(verts))
	for id, v := range verts {
		ranks[id] = v.Rank
	}
	return ranks, supersteps, nil
}

// PageRankPlan is PageRank's Table I row on s's engine: its Pregel program
// on a one-edge graph, one symbolic superstep.
func PageRankPlan(s *dataflow.Session) (*core.Plan, error) {
	return graph.PregelPlan(graphOf[PRVertex](s, planEdges), "PageRank",
		rankInitial(nil), rankVprog, rankSend, sumRanks)
}

// PageRank's Pregel program: every vertex starts at rank 1 with its
// out-degree, scatters rank/outDegree along each out-edge, and takes the
// damped sum of what it receives.
func rankInitial(degrees map[int64]int64) func(int64) PRVertex {
	return func(id int64) PRVertex { return PRVertex{Rank: 1.0, OutDeg: degrees[id]} }
}

func rankVprog(_ int64, v PRVertex, sum float64) (PRVertex, bool) {
	return PRVertex{Rank: 0.15 + 0.85*sum, OutDeg: v.OutDeg}, true
}

func rankSend(_ int64, v PRVertex, _ int64) (float64, bool) {
	if v.OutDeg == 0 {
		return 0, false
	}
	return v.Rank / float64(v.OutDeg), true
}

func sumRanks(a, b float64) float64 { return a + b }

// ConnectedComponents labels every vertex with the smallest vertex id
// reachable from it via min-label propagation until convergence, treating
// edges as undirected like GraphX and Gelly do. It returns the labels and
// the supersteps used.
func ConnectedComponents(s *dataflow.Session, edges []datagen.Edge, maxIter int) (map[int64]int64, int, error) {
	return graph.Pregel(graphOf[int64](s, edges).Undirected(),
		labelInitial, labelVprog, labelSend, minLabel, maxIter)
}

// ConnectedComponentsPlan is Connected Components' Table I row on s's
// engine: its Pregel program on a one-edge graph, one symbolic superstep.
func ConnectedComponentsPlan(s *dataflow.Session) (*core.Plan, error) {
	return graph.PregelPlan(graphOf[int64](s, planEdges).Undirected(), "ConnectedComponents",
		labelInitial, labelVprog, labelSend, minLabel)
}

// Connected Components' Pregel program: every vertex starts labelled with
// its own id, offers its label to its neighbors, and keeps the smallest
// label it is offered.
func labelInitial(id int64) int64 { return id }

func labelVprog(_ int64, label, msg int64) (int64, bool) {
	if msg < label {
		return msg, true
	}
	return label, false
}

func labelSend(_ int64, label, _ int64) (int64, bool) { return label, true }

func minLabel(a, b int64) int64 { return min(a, b) }

// planEdges is the graph the Table I rows are rendered over.
var planEdges = []datagen.Edge{{Src: 0, Dst: 1}}

// SSSP computes single-source shortest hop distances from source over the
// directed edges (unit weights). Unreachable vertices keep +Inf. It is the
// third scenario of the graph suite — unlike PageRank it converges, and
// unlike Connected Components its frontier GROWS before it shrinks, so the
// delta iteration's workset behaves differently.
func SSSP(s *dataflow.Session, edges []datagen.Edge, source int64, maxIter int) (map[int64]float64, int, error) {
	g := graphOf[float64](s, edges)
	return graph.Pregel(g,
		func(id int64) float64 {
			if id == source {
				return 0
			}
			return math.Inf(1)
		},
		func(id int64, dist, msg float64) (float64, bool) {
			if msg < dist {
				return msg, true
			}
			return dist, false
		},
		func(src int64, dist float64, dst int64) (float64, bool) {
			if math.IsInf(dist, 1) {
				return 0, false
			}
			return dist + 1, true
		},
		math.Min,
		maxIter)
}
