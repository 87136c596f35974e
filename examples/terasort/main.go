// Terasort: the paper's sort benchmark end to end at laptop scale, written
// once against dataflow.Session — shared TeraGen input, the same range
// partitioner on every engine (the paper's fairness requirement),
// TeraValidate-style verification, and the timeline contrast: Spark's two
// separated stages, Flink's single pipeline, MapReduce's materialized
// map/reduce phases.
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
	const records = 20000
	spec := cluster.Spec{Nodes: 4, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 200, NetMiBps: 200}
	data := datagen.TeraGen(2016, records)
	part := workloads.TeraPartitioner(data, 4)

	confs := map[string]*core.Config{
		"spark":     core.NewConfig().SetInt(core.SparkDefaultParallelism, 16),
		"flink":     core.NewConfig().SetInt(core.FlinkDefaultParallelism, 4).SetInt(core.FlinkNetworkBuffers, 8192),
		"mapreduce": core.NewConfig(),
	}

	for _, engine := range dataflow.Names() {
		rt, err := cluster.NewRuntime(spec, 4)
		if err != nil {
			log.Fatal(err)
		}
		fs := dfs.New(spec.Nodes, 64*core.KB, 1)
		fs.WriteFile("tera-in", data)
		s, err := dataflow.Open(engine, dataflow.WithConfig(confs[engine]), dataflow.WithRuntime(rt), dataflow.WithFS(fs))
		if err != nil {
			log.Fatal(err)
		}
		if err := workloads.TeraSort(s, "tera-in", "tera-out", part); err != nil {
			log.Fatal(err)
		}
		if err := workloads.VerifyTeraSorted(fs, "tera-out", records); err != nil {
			log.Fatalf("%s output invalid: %v", engine, err)
		}
		fmt.Printf("%s: output globally sorted ✓ — %d bytes shuffled over %d stage(s)\n",
			engine, s.Metrics().ShuffleBytesWritten.Load(), s.Metrics().Stages.Load())
		fmt.Println(s.Timeline().String())
	}
}
