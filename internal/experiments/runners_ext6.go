package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/engine/mapreduce"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// ext6 is the fourth experiment family: the paper's Section V sensitivity
// analysis (shuffle tuning × task parallelism) replayed on the REAL
// mini-engines through the shared internal/shuffle core. Every cell is a
// measured wall-clock mean ± std at laptop scale — the same workload
// definition, the same strategy implementation, three physical engines.

func init() {
	register("ext6", "Shuffle strategy × parallelism — Word Count & Tera Sort on the real engines", runExt6)
}

const (
	ext6Trials      = 3
	ext6TextBytes   = 192 * 1024
	ext6TeraRecords = 4000
)

// ext6Parallelisms are the reduce-side task counts swept per strategy; the
// low point under-subscribes the 16-slot testbed, the high point matches
// the slot budget (the paper's "at most as many tasks as slots" rule for
// pipelined plans).
var ext6Parallelisms = []int{2, 8}

func runExt6() (*Report, error) {
	rep := &Report{
		ID:       "ext6",
		Title:    "Shuffle strategy × parallelism, real engines (WordCount + TeraSort)",
		ThreeWay: true,
		Notes: []string{
			"cells: measured wall-clock seconds at laptop scale (2 nodes × 8 slots), mean ± std over " + fmt.Sprint(ext6Trials) + " runs",
			"hash = bucketed pipelined repartition; sort = spill-and-merge with map-side combine (internal/shuffle)",
			"lit (Sec. V): shuffle implementation and task parallelism are the knobs behind most of the spark-flink gap",
		},
	}
	text := datagen.Text(33, ext6TextBytes, 10)
	tera := datagen.TeraGen(7, ext6TeraRecords)
	for _, wl := range []string{"WordCount", "TeraSort"} {
		for _, strat := range []string{"hash", "sort"} {
			for _, par := range ext6Parallelisms {
				row := skippedRow(fmt.Sprintf("%s %s p=%d", wl, strat, par), "")
				for _, engine := range enabled(sim.Engines()) {
					times := make([]float64, 0, ext6Trials)
					for i := 0; i < ext6Trials; i++ {
						sec, err := ext6Run(engine.String(), wl, strat, par, text, tera)
						if err != nil {
							return nil, fmt.Errorf("ext6 %s %s %s p=%d: %w", engine, wl, strat, par, err)
						}
						times = append(times, sec)
					}
					s := stats.Summarize(times)
					switch engine {
					case sim.Spark:
						row.Spark, row.SparkStd = s.Mean, s.Std
					case sim.Flink:
						row.Flink, row.FlinkStd = s.Mean, s.Std
					case sim.MapReduce:
						row.MapRed, row.MapRedStd = s.Mean, s.Std
					}
				}
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	return rep, nil
}

// ext6Run executes one workload once on one engine with the given shuffle
// strategy and parallelism, over a fresh session, and returns the measured
// seconds.
func ext6Run(engine, wl, strat string, par int, text, tera []byte) (float64, error) {
	spec := cluster.Spec{Nodes: 2, CoresPerNode: 8, MemPerNode: core.GB, DiskSeqMiBps: 200, NetMiBps: 200}
	rt, err := cluster.NewRuntime(spec, 8)
	if err != nil {
		return 0, err
	}
	conf := core.NewConfig().
		Set(core.ShuffleStrategy, strat).
		SetInt(core.SparkDefaultParallelism, par).
		SetInt(core.FlinkDefaultParallelism, par).
		SetInt(mapreduce.MRReduceTasks, par).
		SetInt(core.FlinkNetworkBuffers, 8192).
		SetBytes(core.SparkExecutorMemory, 512*core.MB).
		SetBytes(core.FlinkTaskManagerMemory, 256*core.MB)
	s, err := dataflow.Open(engine, dataflow.WithConfig(conf), dataflow.WithRuntime(rt), dataflow.WithFS(dfs.New(spec.Nodes, 16*core.KB, 1)))
	if err != nil {
		return 0, err
	}
	switch wl {
	case "WordCount":
		s.FS().WriteFile("ext6-wc", text)
		start := time.Now()
		if err := workloads.WordCount(s, "ext6-wc", "ext6-wc-out"); err != nil {
			return 0, err
		}
		return time.Since(start).Seconds(), nil
	case "TeraSort":
		s.FS().WriteFile("ext6-tera", tera)
		part := workloads.TeraPartitioner(tera, par)
		start := time.Now()
		if err := workloads.TeraSort(s, "ext6-tera", "ext6-tera-out", part); err != nil {
			return 0, err
		}
		if err := workloads.VerifyTeraSorted(s.FS(), "ext6-tera-out", ext6TeraRecords); err != nil {
			return 0, err
		}
		return time.Since(start).Seconds(), nil
	}
	return 0, fmt.Errorf("unknown workload %q", wl)
}
