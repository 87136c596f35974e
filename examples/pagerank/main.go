// Pagerank: the unified graph workloads — PageRank, Connected Components
// and SSSP, each defined ONCE over the Pregel-style dataflow/graph
// subsystem — running on all three engines from the same definitions. The
// output shows that every engine computes identical results while paying
// its own iteration cost: Spark schedules fresh stages per superstep over
// cached RDDs, Flink drains a native delta iteration scheduled once, and
// MapReduce chains one full DFS job per superstep.
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/workloads"
)

func session(engine string) *dataflow.Session {
	spec := cluster.Spec{Nodes: 4, CoresPerNode: 8, MemPerNode: core.GB, DiskSeqMiBps: 200, NetMiBps: 200}
	rt, err := cluster.NewRuntime(spec, 8)
	if err != nil {
		log.Fatal(err)
	}
	conf := core.NewConfig()
	switch engine {
	case "spark":
		conf.SetInt(core.SparkDefaultParallelism, 8).SetInt(core.SparkEdgePartitions, 8)
	case "flink":
		conf.SetInt(core.FlinkDefaultParallelism, 2).SetInt(core.FlinkNetworkBuffers, 8192)
	}
	s, err := dataflow.Open(engine, dataflow.WithConfig(conf), dataflow.WithRuntime(rt), dataflow.WithFS(dfs.New(spec.Nodes, 64*core.KB, 1)))
	if err != nil {
		log.Fatal(err)
	}
	return s
}

func main() {
	// Twitter-shaped graph, scaled down (Table IV shape preserved).
	edges := datagen.RMAT(4, datagen.SmallGraph.Scale(100000))
	fmt.Printf("graph: %s scaled to %d edges\n\n", datagen.SmallGraph.Name, len(edges))

	type engineRun struct {
		name   string
		ranks  map[int64]float64
		labels map[int64]int64
		dists  map[int64]float64
		ccIter int
		rounds int64
	}
	var runs []engineRun
	for _, engine := range dataflow.Names() { // spark, flink, mapreduce
		s := session(engine)
		ranks, _, err := workloads.PageRank(s, edges, 15)
		if err != nil {
			log.Fatal(err)
		}
		labels, ccIter, err := workloads.ConnectedComponents(s, edges, 50)
		if err != nil {
			log.Fatal(err)
		}
		dists, _, err := workloads.SSSP(s, edges, 0, 50)
		if err != nil {
			log.Fatal(err)
		}
		runs = append(runs, engineRun{
			name: engine, ranks: ranks, labels: labels, dists: dists,
			ccIter: ccIter, rounds: s.Metrics().SchedulingRounds.Load(),
		})
	}

	base := runs[0]
	type vr struct {
		id   int64
		rank float64
	}
	var top []vr
	for id, r := range base.ranks {
		top = append(top, vr{id, r})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].rank > top[j].rank })
	fmt.Println("top-5 PageRank (all engines):")
	for _, v := range top[:5] {
		fmt.Printf("  vertex %-6d", v.id)
		for _, r := range runs {
			fmt.Printf(" %s=%.4f", r.name, r.ranks[v.id])
		}
		fmt.Println()
	}

	components := map[int64]bool{}
	reachable := 0
	for _, l := range base.labels {
		components[l] = true
	}
	for _, d := range base.dists {
		if !math.IsInf(d, 1) {
			reachable++
		}
	}
	fmt.Printf("\nconnected components: %d over %d vertices; SSSP reaches %d from vertex 0\n",
		len(components), len(base.labels), reachable)
	for _, r := range runs[1:] {
		agree := 0
		for id, l := range base.labels {
			if r.labels[id] == l {
				agree++
			}
		}
		fmt.Printf("%s agrees with %s on %d/%d labels\n", r.name, base.name, agree, len(base.labels))
	}
	fmt.Println()
	for _, r := range runs {
		fmt.Printf("%-10s CC converged in %d supersteps using %d scheduling rounds\n",
			r.name, r.ccIter, r.rounds)
	}
}
