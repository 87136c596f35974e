// Quickstart: Word Count written ONCE against the engine-agnostic
// dataflow API and executed on all three mini-engines over the same
// synthetic corpus, printing the engine metrics that drive the paper's
// analysis (stages, scheduling rounds, shuffle volume, combine ratio).
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/workloads"
)

func main() {
	spec := cluster.Spec{Nodes: 4, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 200, NetMiBps: 200}
	corpus := datagen.Text(42, 256*1024, 10)

	confs := map[string]*core.Config{
		"spark":     core.NewConfig().SetInt(core.SparkDefaultParallelism, 16),
		"flink":     core.NewConfig().SetInt(core.FlinkDefaultParallelism, 8).SetInt(core.FlinkNetworkBuffers, 8192),
		"mapreduce": core.NewConfig(),
	}

	// One runtime and filesystem per engine, same topology, same input —
	// and exactly one Word Count definition for all of them.
	sessions := map[string]*dataflow.Session{}
	for _, engine := range dataflow.Names() {
		rt, err := cluster.NewRuntime(spec, 4)
		if err != nil {
			log.Fatal(err)
		}
		fs := dfs.New(spec.Nodes, 16*core.KB, 2)
		fs.WriteFile("wiki", corpus)
		s, err := dataflow.Open(engine, dataflow.WithConfig(confs[engine]), dataflow.WithRuntime(rt), dataflow.WithFS(fs))
		if err != nil {
			log.Fatal(err)
		}
		if err := workloads.WordCount(s, "wiki", "counts"); err != nil {
			log.Fatal(err)
		}
		m := s.Metrics().Snapshot()
		fmt.Printf("%-10s stages=%-3d tasks=%-4d shuffleBytes=%-8d combineRatio=%.1f schedulingRounds=%d\n",
			engine, m.Stages, m.TasksLaunched, m.ShuffleBytesWritten, m.CombineRatio, m.SchedulingRounds)
		sessions[engine] = s
	}

	fmt.Println()
	fmt.Println("The architectural contrast the paper studies, from ONE workload definition:")
	fmt.Println("  spark:     staged execution — scheduling waves with barriers between stages")
	fmt.Println("  flink:     one pipelined deployment, operator chaining, no barriers")
	fmt.Println("  mapreduce: rigid map/materialize/reduce phases, everything through disk")
	fmt.Println()
	fmt.Println("Lowered physical plans (Table I) from the same definition:")
	for _, engine := range dataflow.Names() {
		plan, err := workloads.WordCountPlan(sessions[engine])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("  " + plan.String())
	}
}
