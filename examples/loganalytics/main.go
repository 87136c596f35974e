// Loganalytics: the paper's Section VI-B discussion case — several filter
// passes over the same log data, written ONCE against dataflow.Session and
// run on every engine. Spark's lowering honors the Cached() hint and scans
// the input a single time; Flink and MapReduce have no persistence control
// and re-read it per pattern: the records-read counters show the
// difference without any per-engine code.
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
	logsData := datagen.GrepText(7, 20000, "ERROR", 0.05)
	patterns := []string{"ERROR", "ba", "shi"}

	confs := map[string]*core.Config{
		"spark":     core.NewConfig().SetInt(core.SparkDefaultParallelism, 16),
		"flink":     core.NewConfig().SetInt(core.FlinkDefaultParallelism, 8).SetInt(core.FlinkNetworkBuffers, 8192),
		"mapreduce": core.NewConfig(),
	}

	for _, engine := range dataflow.Names() {
		rt, err := cluster.NewRuntime(spec, 4)
		if err != nil {
			log.Fatal(err)
		}
		fs := dfs.New(spec.Nodes, 32*core.KB, 2)
		fs.WriteFile("logs", logsData)
		s, err := dataflow.Open(engine, dataflow.WithConfig(confs[engine]), dataflow.WithRuntime(rt), dataflow.WithFS(fs))
		if err != nil {
			log.Fatal(err)
		}
		res, err := workloads.GrepMultiFilter(s, "logs", patterns)
		if err != nil {
			log.Fatal(err)
		}
		for i, p := range patterns {
			fmt.Printf("%-10s pattern %-8q matches=%d\n", engine, p, res[i])
		}
		fmt.Printf("%-10s read %d records total (cache hits: %d)\n\n",
			engine, s.Metrics().RecordsRead.Load(), s.Metrics().CacheHits.Load())
	}
	fmt.Println("spark's persistence control pays off: one scan serves every pattern;")
	fmt.Println("flink and mapreduce re-read the input per pattern (Section VI-B).")
}
