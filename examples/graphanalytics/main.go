// Graphanalytics: PageRank and Connected Components on a scaled-down
// Twitter-shaped R-MAT graph through the unified dataflow API on both
// in-memory engines, verifying that they agree and showing the
// iteration-model contrast (Spark schedules stages per superstep; Flink's
// delta iteration drains its workset).
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/workloads"
)

func main() {
	spec := cluster.Spec{Nodes: 4, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 200, NetMiBps: 200}
	srt, err := cluster.NewRuntime(spec, 4)
	if err != nil {
		log.Fatal(err)
	}
	frt, err := cluster.NewRuntime(spec, 4)
	if err != nil {
		log.Fatal(err)
	}
	sparkS, err := dataflow.Open("spark",
		dataflow.WithConfig(core.NewConfig().SetInt(core.SparkDefaultParallelism, 8).
			SetInt(core.SparkEdgePartitions, 8)),
		dataflow.WithRuntime(srt),
		dataflow.WithFS(dfs.New(spec.Nodes, 64*core.KB, 1)))
	if err != nil {
		log.Fatal(err)
	}
	flinkS, err := dataflow.Open("flink",
		dataflow.WithConfig(core.NewConfig().SetInt(core.FlinkDefaultParallelism, 4).
			SetInt(core.FlinkNetworkBuffers, 8192)),
		dataflow.WithRuntime(frt),
		dataflow.WithFS(dfs.New(spec.Nodes, 64*core.KB, 1)))
	if err != nil {
		log.Fatal(err)
	}

	// Twitter-shaped graph, scaled 100000x down (Table IV shape preserved).
	edges := datagen.RMAT(4, datagen.SmallGraph.Scale(100000))
	fmt.Printf("graph: %s scaled to %d edges\n\n", datagen.SmallGraph.Name, len(edges))

	sRanks, _, err := workloads.PageRank(sparkS, edges, 15)
	if err != nil {
		log.Fatal(err)
	}
	fRanks, _, err := workloads.PageRank(flinkS, edges, 15)
	if err != nil {
		log.Fatal(err)
	}
	type vr struct {
		id   int64
		rank float64
	}
	var top []vr
	for id, r := range sRanks {
		top = append(top, vr{id, r})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].rank > top[j].rank })
	fmt.Println("top-5 PageRank (spark vs flink):")
	for _, v := range top[:5] {
		fmt.Printf("  vertex %-6d spark=%.4f flink=%.4f\n", v.id, v.rank, fRanks[v.id])
	}

	sLabels, sIters, err := workloads.ConnectedComponents(sparkS, edges, 50)
	if err != nil {
		log.Fatal(err)
	}
	fLabels, fSupersteps, err := workloads.ConnectedComponents(flinkS, edges, 50)
	if err != nil {
		log.Fatal(err)
	}
	agree := 0
	components := map[int64]bool{}
	for id, l := range sLabels {
		if fLabels[id] == l {
			agree++
		}
		components[l] = true
	}
	fmt.Printf("\nconnected components: %d components over %d vertices; engines agree on %d/%d labels\n",
		len(components), len(sLabels), agree, len(sLabels))
	fmt.Printf("spark converged in %d supersteps (%d scheduling rounds — loop unrolling)\n",
		sIters, sparkS.Metrics().SchedulingRounds.Load())
	fmt.Printf("flink converged in %d supersteps (%d scheduling rounds — native delta iteration)\n",
		fSupersteps, flinkS.Metrics().SchedulingRounds.Load())
}
