package spark_test

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/engine/spark"
	"repro/internal/graph/graphxlike"
	"repro/internal/metrics"
)

// TestPregelSurvivesLosingTheEdgesNode is the stage-resubmission path under
// GraphX's Pregel: the graph's edges are cached and hash-partitioned, half
// of their partitions on node 1, and node 1 is lost right after a
// superstep's map stage — its cached edges, out-edge lists and vertex
// states and its map outputs all vanish. The result stage's fetch fails,
// the scheduler resubmits, and every lost partition is recomputed from
// lineage through the narrow cogroups. The ranks must equal a fault-free
// run's exactly: recomputation replays the same folds in the same order.
func TestPregelSurvivesLosingTheEdgesNode(t *testing.T) {
	edges := datagen.RMAT(29, datagen.GraphSpec{Name: "failnode", Vertices: 64, Edges: 512})
	const supersteps = 5
	run := func(failAfterMapStage int) (map[int64]float64, *metrics.JobMetrics) {
		spec := cluster.Spec{Nodes: 2, CoresPerNode: 2, MemPerNode: core.GB, DiskSeqMiBps: 100, NetMiBps: 100}
		rt, err := cluster.NewRuntime(spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		conf := core.NewConfig().SetInt(core.SparkDefaultParallelism, 4).SetInt(core.SparkEdgePartitions, 4)
		ctx := spark.NewContext(conf, rt, dfs.New(2, 64*core.KB, 1))
		g := graphxlike.FromEdges(ctx, spark.Parallelize(ctx, edges, 4), int64(0))
		// The observer runs on the driver goroutine at stage barriers.
		mapStages := 0
		ctx.Metrics().SetStageObserver(func(ev metrics.StageEvent) {
			if !strings.HasPrefix(ev.Name, "shuffle-") {
				return
			}
			if mapStages++; mapStages == failAfterMapStage {
				ctx.FailNode(1)
			}
		})
		ranks, n, err := graphxlike.PageRank(g, supersteps)
		if err != nil {
			t.Fatal(err)
		}
		if n != supersteps {
			t.Fatalf("PageRank ran %d supersteps, want %d", n, supersteps)
		}
		m, err := spark.CollectAsMap(ranks)
		if err != nil {
			t.Fatal(err)
		}
		return m, ctx.Metrics()
	}

	want, clean := run(0)
	// Map stages: the edges (partitioned by the out-degree job), the vertex
	// ids, then one per superstep's messages; the sixth is the fourth
	// superstep's.
	got, faulty := run(6)
	if faulty.Recomputations.Load() == 0 {
		t.Fatal("losing node 1 caused no stage resubmission: the failure was not injected mid-Pregel")
	}
	if faulty.CacheMisses.Load() <= clean.CacheMisses.Load() {
		t.Errorf("cache misses %d after the failure, %d without: no cached partition was lost",
			faulty.CacheMisses.Load(), clean.CacheMisses.Load())
	}
	if len(got) != len(want) {
		t.Fatalf("ranked %d vertices after the failure, %d without", len(got), len(want))
	}
	for id, r := range want {
		if got[id] != r {
			t.Errorf("rank[%d] = %v after the failure, %v without", id, got[id], r)
		}
	}
}
