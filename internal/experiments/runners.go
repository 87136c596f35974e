package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// trials per configuration, mirroring the paper's ~5 runs.
const trials = 5

// graph dataset byte sizes of Table IV.
var (
	smallBytes  = 14029 * core.MB // 13.7 GB
	mediumBytes = 30822 * core.MB // 30.1 GB
	largeBytes  = 1229 * core.GB  // 1.2 TB
	teraBytes   = 3584 * core.GB  // 3.5 TB
)

func init() {
	register("tab1", "Operators used in each workload (Table I)", runTab1)
	register("tab2", "Word Count and Grep configuration settings (Table II)", runTab2)
	register("fig1", "Word Count — fixed problem size per node (24 GB)", runFig1)
	register("fig2", "Word Count — 16 nodes, different datasets", runFig2)
	register("fig3", "Word Count resource usage — 32 nodes, 768 GB", runFig3)
	register("fig4", "Grep — fixed problem size per node (24 GB)", runFig4)
	register("fig5", "Grep — 16 nodes, different datasets", runFig5)
	register("fig6", "Grep resource usage — 32 nodes, 768 GB", runFig6)
	register("tab3", "Tera Sort configuration settings (Table III)", runTab3)
	register("fig7", "Tera Sort — fixed problem size per node (32 GB)", runFig7)
	register("fig8", "Tera Sort — adding nodes, same dataset (3.5 TB)", runFig8)
	register("fig9", "Tera Sort resource usage — 55 nodes, 3.5 TB", runFig9)
	register("fig10", "K-Means resource usage — 24 nodes, 10 iterations", runFig10)
	register("fig11", "K-Means — increasing cluster size, same dataset", runFig11)
	register("tab4", "Graph dataset characteristics (Table IV)", runTab4)
	register("tab5", "Configuration settings for the Small Graph (Table V)", runTab5)
	register("tab6", "Configuration settings for the Medium Graph (Table VI)", runTab6)
	register("fig12", "Page Rank — Small Graph (increasing cluster size)", runFig12)
	register("fig13", "Page Rank — Medium Graph (increasing cluster size)", runFig13)
	register("fig14", "Connected Components — Small Graph", runFig14)
	register("fig15", "Connected Components — Medium Graph", runFig15)
	register("fig16", "Page Rank resource usage — 27 nodes, Small Graph", runFig16)
	register("fig17", "Connected Components resource usage — 27 nodes, Medium Graph", runFig17)
	register("tab7", "Page Rank and Connected Components on the Large Graph (Table VII)", runTab7)
}

// scalingReport runs a job across node counts with per-node configs and
// collects mean ± std rows.
func scalingReport(id, title string, nodeCounts []int,
	jobFor func(nodes int) sim.Job, confFor func(nodes int) *core.Config,
	labelFor func(nodes int) string, paperNotes map[int]string) (*Report, error) {
	rep := &Report{ID: id, Title: title}
	for _, n := range nodeCounts {
		conf := confFor(n)
		job := jobFor(n)
		row := skippedRow(labelFor(n), paperNotes[n])
		for _, engine := range enabled([]sim.EngineKind{sim.Spark, sim.Flink}) {
			p := sim.Params{Spec: cluster.Grid5000(n), Engine: engine, Conf: conf}
			times, err := sim.Trials(job, p, trials)
			if err != nil {
				return nil, fmt.Errorf("%s at %d nodes (%v): %w", id, n, engine, err)
			}
			s := stats.Summarize(times)
			if engine == sim.Spark {
				row.Spark, row.SparkStd = s.Mean, s.Std
			} else {
				row.Flink, row.FlinkStd = s.Mean, s.Std
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// usageReport runs one configuration per engine and renders the
// correlation figures.
func usageReport(id, title string, nodes int, job sim.Job, conf *core.Config, notes []string) (*Report, error) {
	rep := &Report{ID: id, Title: title, Notes: notes}
	for _, engine := range enabled([]sim.EngineKind{sim.Flink, sim.Spark}) {
		res := job.Run(sim.Params{Spec: cluster.Grid5000(nodes), Engine: engine, Conf: conf})
		if res.Err != nil {
			return nil, fmt.Errorf("%s (%v): %w", id, engine, res.Err)
		}
		rep.Figures = append(rep.Figures, res.Corr.Render(64))
		row := skippedRow(engine.String(), "")
		if engine == sim.Spark {
			row.Spark = res.Seconds
		} else {
			row.Flink = res.Seconds
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// --- Batch ----------------------------------------------------------------

func runFig1() (*Report, error) {
	return scalingReport("fig1", "Word Count weak scaling, 24 GB/node",
		[]int{2, 4, 8, 16, 32},
		func(n int) sim.Job { return sim.WordCountJob{TotalBytes: core.ByteSize(n) * 24 * core.GB} },
		tab2Config,
		func(n int) string { return fmt.Sprintf("%d nodes", n) },
		map[int]string{32: "paper: ≈572/543 s; Flink slightly better at 16-32 nodes"})
}

func runFig2() (*Report, error) {
	sizes := []int{24, 27, 30, 33}
	rep := &Report{ID: "fig2", Title: "Word Count, 16 nodes, growing datasets"}
	for _, gb := range sizes {
		job := sim.WordCountJob{TotalBytes: core.ByteSize(16*gb) * core.GB}
		row := skippedRow(fmt.Sprintf("%d GB/node", gb), "paper: Flink ≈10% faster")
		for _, engine := range enabled([]sim.EngineKind{sim.Spark, sim.Flink}) {
			p := sim.Params{Spec: cluster.Grid5000(16), Engine: engine, Conf: tab2Config(16)}
			times, err := sim.Trials(job, p, trials)
			if err != nil {
				return nil, err
			}
			s := stats.Summarize(times)
			if engine == sim.Spark {
				row.Spark, row.SparkStd = s.Mean, s.Std
			} else {
				row.Flink, row.FlinkStd = s.Mean, s.Std
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

func runFig3() (*Report, error) {
	return usageReport("fig3", "Word Count resource usage (32 nodes, 768 GB)",
		32, sim.WordCountJob{TotalBytes: 768 * core.GB}, tab2Config(32),
		[]string{"paper: Flink 543 s vs Spark 572 s; Flink's disk is anti-cyclic against CPU (sort-based combiner)"})
}

func runFig4() (*Report, error) {
	return scalingReport("fig4", "Grep weak scaling, 24 GB/node",
		[]int{2, 4, 8, 16, 32},
		func(n int) sim.Job { return sim.GrepJob{TotalBytes: core.ByteSize(n) * 24 * core.GB, Selectivity: 0.1} },
		tab2Config,
		func(n int) string { return fmt.Sprintf("%d nodes", n) },
		map[int]string{32: "paper: Spark up to 20% faster at 16-32 nodes"})
}

func runFig5() (*Report, error) {
	rep := &Report{ID: "fig5", Title: "Grep, 16 nodes, growing datasets"}
	for _, gb := range []int{24, 27, 30, 33} {
		job := sim.GrepJob{TotalBytes: core.ByteSize(16*gb) * core.GB, Selectivity: 0.1}
		row := skippedRow(fmt.Sprintf("%d GB/node", gb), "paper: Spark's advantage preserved")
		for _, engine := range enabled([]sim.EngineKind{sim.Spark, sim.Flink}) {
			p := sim.Params{Spec: cluster.Grid5000(16), Engine: engine, Conf: tab2Config(16)}
			times, err := sim.Trials(job, p, trials)
			if err != nil {
				return nil, err
			}
			s := stats.Summarize(times)
			if engine == sim.Spark {
				row.Spark, row.SparkStd = s.Mean, s.Std
			} else {
				row.Flink, row.FlinkStd = s.Mean, s.Std
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

func runFig6() (*Report, error) {
	return usageReport("fig6", "Grep resource usage (32 nodes, 768 GB)",
		32, sim.GrepJob{TotalBytes: 768 * core.GB, Selectivity: 0.1}, tab2Config(32),
		[]string{"paper: Spark 275 s vs Flink 331 s; Flink's filter→count sink underuses resources"})
}

// --- Tera Sort --------------------------------------------------------------

func runFig7() (*Report, error) {
	return scalingReport("fig7", "Tera Sort weak scaling, 32 GB/node",
		[]int{17, 34, 63},
		func(n int) sim.Job { return sim.TeraSortJob{TotalBytes: core.ByteSize(n) * 32 * core.GB} },
		tab3Config,
		func(n int) string { return fmt.Sprintf("%d nodes", n) },
		map[int]string{34: "paper: Flink better on average, higher variance"})
}

func runFig8() (*Report, error) {
	return scalingReport("fig8", "Tera Sort strong scaling, 3.5 TB",
		[]int{55, 73, 97},
		func(n int) sim.Job { return sim.TeraSortJob{TotalBytes: teraBytes} },
		tab3Config,
		func(n int) string { return fmt.Sprintf("%d nodes", n) },
		map[int]string{55: "paper: 5079/4669 s; Flink's edge grows with cluster size"})
}

func runFig9() (*Report, error) {
	return usageReport("fig9", "Tera Sort resource usage (55 nodes, 3.5 TB)",
		55, sim.TeraSortJob{TotalBytes: teraBytes}, tab3Config(55),
		[]string{"paper: Flink pipelines into a single stage; Spark shows two clearly separated stages"})
}

// --- K-Means ----------------------------------------------------------------

func runFig10() (*Report, error) {
	return usageReport("fig10", "K-Means resource usage (24 nodes, 10 iterations)",
		24, sim.KMeansJob{TotalBytes: 51 * core.GB, Iterations: 10}, core.NewConfig(),
		[]string{"paper: Flink 244 s vs Spark 278 s; Spark shows map→collect span pairs per iteration"})
}

func runFig11() (*Report, error) {
	return scalingReport("fig11", "K-Means, same dataset, growing cluster",
		[]int{8, 14, 20, 24},
		func(n int) sim.Job { return sim.KMeansJob{TotalBytes: 51 * core.GB, Iterations: 10} },
		func(n int) *core.Config { return core.NewConfig() },
		func(n int) string { return fmt.Sprintf("%d nodes", n) },
		map[int]string{24: "paper: Flink's bulk iterate >10% faster than loop unrolling"})
}

// --- Graphs -----------------------------------------------------------------

func graphScaling(id, title string, algo sim.GraphAlgo, graph datagen.GraphSpec,
	size core.ByteSize, iters int, nodeCounts []int, confFor func(int) *core.Config,
	paperNotes map[int]string) (*Report, error) {
	return scalingReport(id, title, nodeCounts,
		func(n int) sim.Job {
			return sim.GraphJob{Algo: algo, Graph: graph, SizeBytes: size, Iterations: iters}
		},
		confFor,
		func(n int) string { return fmt.Sprintf("%d nodes", n) },
		paperNotes)
}

func runFig12() (*Report, error) {
	return graphScaling("fig12", "Page Rank, Small Graph (Twitter), 20 iterations",
		sim.PageRank, datagen.SmallGraph, smallBytes, 20,
		[]int{8, 14, 20, 27}, tab5Config,
		map[int]string{27: "paper: 232/192 s; Flink slightly better"})
}

func runFig13() (*Report, error) {
	return graphScaling("fig13", "Page Rank, Medium Graph (Friendster), 20 iterations",
		sim.PageRank, datagen.MediumGraph, mediumBytes, 20,
		[]int{24, 27, 34, 55}, tab6Config,
		map[int]string{27: "paper: Flink ahead; drops if parallelism reduced in load"})
}

func runFig14() (*Report, error) {
	return graphScaling("fig14", "Connected Components, Small Graph, converged",
		sim.ConnComp, datagen.SmallGraph, smallBytes, 20,
		[]int{8, 14, 20, 27}, tab5Config,
		map[int]string{27: "paper: Flink slightly better (delta iterations)"})
}

func runFig15() (*Report, error) {
	return graphScaling("fig15", "Connected Components, Medium Graph, converged",
		sim.ConnComp, datagen.MediumGraph, mediumBytes, 23,
		[]int{27, 34, 55}, tab6Config,
		map[int]string{27: "paper: 388/267 s; Flink up to 30% better"})
}

func runFig16() (*Report, error) {
	return usageReport("fig16", "Page Rank resource usage (27 nodes, Small Graph, 20 iterations)",
		27, sim.GraphJob{Algo: sim.PageRank, Graph: datagen.SmallGraph, SizeBytes: smallBytes, Iterations: 20},
		tab5Config(27),
		[]string{"paper: both CPU+disk-bound in load, CPU+network-bound in iterations; Spark writes ranks to disk each superstep, Flink does not"})
}

func runFig17() (*Report, error) {
	return usageReport("fig17", "Connected Components resource usage (27 nodes, Medium Graph, 23 supersteps)",
		27, sim.GraphJob{Algo: sim.ConnComp, Graph: datagen.MediumGraph, SizeBytes: mediumBytes, Iterations: 23},
		tab6Config(27),
		[]string{"paper: Flink's delta iterate uses CPU more efficiently; memory constant for Flink, growing for Spark"})
}

func runTab7() (*Report, error) {
	rep := &Report{ID: "tab7", Title: "Large Graph (WDC): load + iterations, with failures"}
	rep.Table = append(rep.Table, []string{"nodes", "algo", "spark load", "spark iter", "flink load", "flink iter"})
	for _, n := range []int{27, 44, 97} {
		for _, algo := range []sim.GraphAlgo{sim.PageRank, sim.ConnComp} {
			iters := 5
			if algo == sim.ConnComp {
				iters = 10
			}
			job := sim.GraphJob{Algo: algo, Graph: datagen.LargeGraph, SizeBytes: largeBytes, Iterations: iters}
			cells := []string{fmt.Sprint(n), algo.String()}
			// The table's engine columns are positional: a filtered-out
			// engine must still occupy its two cells.
			for _, engine := range []sim.EngineKind{sim.Spark, sim.Flink} {
				if !engineOn(engine) {
					cells = append(cells, "-", "-")
					continue
				}
				res := job.Run(sim.Params{Spec: cluster.Grid5000(n), Engine: engine, Conf: tab7Config(n)})
				if res.Err != nil {
					cells = append(cells, "no", "no")
				} else {
					cells = append(cells, fmt.Sprintf("%.0fs", res.LoadSeconds), fmt.Sprintf("%.0fs", res.IterSeconds))
				}
			}
			rep.Table = append(rep.Table, cells)
		}
	}
	rep.Notes = append(rep.Notes,
		"paper @97 nodes: Spark PR 418+596 s vs Flink 1096+645 s; Spark CC 357+529 s vs Flink 580+1268 s (Spark ≈1.7x overall)",
		"Flink fails at 27/44 nodes: CoGroup computes the solution set in memory",
		"Spark needs doubled spark.edge.partitions to survive the load stage")
	return rep, nil
}

// --- Tables from the engines/config ----------------------------------------

func runTab1() (*Report, error) {
	spec := cluster.Spec{Nodes: 2, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 100, NetMiBps: 100}
	var sessions []*dataflow.Session
	for _, engine := range []string{"spark", "flink"} {
		rt, err := cluster.NewRuntime(spec, 4)
		if err != nil {
			return nil, err
		}
		s, err := dataflow.Open(engine, dataflow.WithRuntime(rt), dataflow.WithFS(dfs.New(2, 64*core.KB, 1)))
		if err != nil {
			return nil, fmt.Errorf("tab1: %w", err)
		}
		sessions = append(sessions, s)
	}
	plans, err := workloads.Plans(sessions...)
	if err != nil {
		return nil, fmt.Errorf("tab1: %w", err)
	}
	rep := &Report{ID: "tab1", Title: "Operator plans per workload and framework"}
	for _, p := range plans {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("tab1: %s/%s: %w", p.Framework, p.Workload, err)
		}
		ops := ""
		for i, op := range p.Operators() {
			if i > 0 {
				ops += " → "
			}
			ops += op
		}
		rep.Table = append(rep.Table, []string{p.Workload, p.Framework, ops})
	}
	return rep, nil
}

// configTable renders one of the paper's configuration tables: a row per
// key, a column per node count, each cell the key's value as Set takes it.
func configTable(id, title string, nodeCounts []int, confFor func(int) *core.Config, keys []string) *Report {
	rep := &Report{ID: id, Title: title}
	header := append([]string{"parameter"}, make([]string, len(nodeCounts))...)
	for i, n := range nodeCounts {
		header[i+1] = fmt.Sprintf("%d nodes", n)
	}
	rep.Table = append(rep.Table, header)
	for _, key := range keys {
		row := []string{key}
		for _, n := range nodeCounts {
			row = append(row, confFor(n).Format(key))
		}
		rep.Table = append(rep.Table, row)
	}
	return rep
}

func runTab2() (*Report, error) {
	return configTable("tab2", "Word Count / Grep settings (24 GB/node)",
		[]int{2, 4, 8, 16, 32}, tab2Config,
		[]string{core.SparkDefaultParallelism, core.FlinkDefaultParallelism,
			core.SparkExecutorMemory, core.FlinkTaskManagerMemory,
			core.HDFSBlockSize, core.FlinkNetworkBuffers, core.BufferSize}), nil
}

func runTab3() (*Report, error) {
	return configTable("tab3", "Tera Sort settings",
		[]int{17, 34, 63, 55, 73, 97}, tab3Config,
		[]string{core.SparkDefaultParallelism, core.FlinkDefaultParallelism,
			core.SparkExecutorMemory, core.FlinkTaskManagerMemory,
			core.HDFSBlockSize, core.FlinkNetworkBuffers, core.BufferSize}), nil
}

func runTab4() (*Report, error) {
	rep := &Report{ID: "tab4", Title: "Graph dataset characteristics (Table IV)"}
	rep.Table = append(rep.Table, []string{"graph", "vertices", "edges", "size"})
	for _, g := range []struct {
		spec datagen.GraphSpec
		size core.ByteSize
	}{
		{datagen.SmallGraph, smallBytes},
		{datagen.MediumGraph, mediumBytes},
		{datagen.LargeGraph, largeBytes},
	} {
		rep.Table = append(rep.Table, []string{
			g.spec.Name,
			fmt.Sprintf("%.1fM", float64(g.spec.Vertices)/1e6),
			fmt.Sprintf("%.1fB", float64(g.spec.Edges)/1e9),
			g.size.String(),
		})
	}
	rep.Notes = append(rep.Notes, "generators: datagen.RMAT reproduces the vertex/edge counts and power-law degrees at any scale factor")
	return rep, nil
}

func runTab5() (*Report, error) {
	return configTable("tab5", "Small Graph settings (formulas over nodes×cores)",
		[]int{8, 14, 20, 27}, tab5Config,
		[]string{core.SparkDefaultParallelism, core.FlinkDefaultParallelism,
			core.SparkEdgePartitions, core.FlinkNetworkBuffers}), nil
}

func runTab6() (*Report, error) {
	return configTable("tab6", "Medium Graph settings",
		[]int{24, 27, 34, 55}, tab6Config,
		[]string{core.SparkDefaultParallelism, core.FlinkDefaultParallelism,
			core.SparkExecutorMemory, core.FlinkTaskManagerMemory,
			core.SparkEdgePartitions}), nil
}
