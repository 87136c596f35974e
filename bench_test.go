package repro

// One benchmark per table and figure of the paper, plus the ablations
// DESIGN.md §7 calls out. Each experiment benchmark runs the paper-scale
// simulation and reports the simulated execution times as custom metrics
// (spark_s / flink_s), so `go test -bench` output doubles as the
// reproduction's summary. The Engine* benchmarks measure the real
// mini-engines end to end at laptop scale.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/engine/flink"
	"repro/internal/engine/mapreduce"
	"repro/internal/engine/spark"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// benchExperiment runs a registered experiment and reports the last row's
// times (the paper's headline configuration) as custom metrics.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var rep *experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = r.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rep.Rows) > 0 {
		last := rep.Rows[len(rep.Rows)-1]
		if rep.Latency {
			// Streaming reports measure latency percentiles, not runtimes.
			if !math.IsNaN(last.Spark) {
				b.ReportMetric(last.Spark, "spark_p50_ms")
				b.ReportMetric(last.SparkP99, "spark_p99_ms")
			}
			if !math.IsNaN(last.Flink) {
				b.ReportMetric(last.Flink, "flink_p50_ms")
				b.ReportMetric(last.FlinkP99, "flink_p99_ms")
			}
			return
		}
		if !math.IsNaN(last.Spark) {
			b.ReportMetric(last.Spark, "spark_s")
		}
		if !math.IsNaN(last.Flink) {
			b.ReportMetric(last.Flink, "flink_s")
		}
		if rep.ThreeWay && !math.IsNaN(last.MapRed) {
			b.ReportMetric(last.MapRed, "mapreduce_s")
		}
	}
}

func BenchmarkTable1Operators(b *testing.B)       { benchExperiment(b, "tab1") }
func BenchmarkTable2Configs(b *testing.B)         { benchExperiment(b, "tab2") }
func BenchmarkFig1WordCountWeak(b *testing.B)     { benchExperiment(b, "fig1") }
func BenchmarkFig2WordCountData(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig3WordCountUsage(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFig4GrepWeak(b *testing.B)          { benchExperiment(b, "fig4") }
func BenchmarkFig5GrepData(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig6GrepUsage(b *testing.B)         { benchExperiment(b, "fig6") }
func BenchmarkTable3Configs(b *testing.B)         { benchExperiment(b, "tab3") }
func BenchmarkFig7TeraSortWeak(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkFig8TeraSortStrong(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9TeraSortUsage(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10KMeansUsage(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11KMeansScale(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkTable4Graphs(b *testing.B)          { benchExperiment(b, "tab4") }
func BenchmarkTable5SmallGraphConf(b *testing.B)  { benchExperiment(b, "tab5") }
func BenchmarkTable6MediumGraphConf(b *testing.B) { benchExperiment(b, "tab6") }
func BenchmarkFig12PageRankSmall(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13PageRankMedium(b *testing.B)   { benchExperiment(b, "fig13") }
func BenchmarkFig14CCSmall(b *testing.B)          { benchExperiment(b, "fig14") }
func BenchmarkFig15CCMedium(b *testing.B)         { benchExperiment(b, "fig15") }
func BenchmarkFig16PageRankUsage(b *testing.B)    { benchExperiment(b, "fig16") }
func BenchmarkFig17CCUsage(b *testing.B)          { benchExperiment(b, "fig17") }
func BenchmarkTab7LargeGraph(b *testing.B)        { benchExperiment(b, "tab7") }
func BenchmarkExt1WordCountThreeWay(b *testing.B) { benchExperiment(b, "ext1") }
func BenchmarkExt2TeraSortThreeWay(b *testing.B)  { benchExperiment(b, "ext2") }
func BenchmarkExt3KMeansThreeWay(b *testing.B)    { benchExperiment(b, "ext3") }
func BenchmarkExt4PageRankThreeWay(b *testing.B)  { benchExperiment(b, "ext4") }
func BenchmarkExt5CCThreeWay(b *testing.B)        { benchExperiment(b, "ext5") }
func BenchmarkExt6ShuffleSweep(b *testing.B)      { benchExperiment(b, "ext6") }
func BenchmarkExt7StreamingLatency(b *testing.B)  { benchExperiment(b, "ext7") }

// --- Ablations (DESIGN.md §7) ----------------------------------------------

// BenchmarkAblationPipelining disables Flink's pipeline on Tera Sort: the
// advantage over Spark should disappear.
func BenchmarkAblationPipelining(b *testing.B) {
	p := sim.Params{Spec: cluster.Grid5000(55), Engine: sim.Flink, Conf: core.NewConfig()}
	var piped, staged float64
	for i := 0; i < b.N; i++ {
		piped = sim.TeraSortJob{TotalBytes: 3584 * core.GB}.Run(p).Seconds
		staged = sim.TeraSortJob{TotalBytes: 3584 * core.GB, DisablePipeline: true}.Run(p).Seconds
	}
	b.ReportMetric(piped, "pipelined_s")
	b.ReportMetric(staged, "staged_s")
	if staged <= piped {
		b.Fatalf("staged flink (%.0f) should be slower than pipelined (%.0f)", staged, piped)
	}
}

// BenchmarkAblationSortVsHashCombine compares the real flink engine's
// combiner strategies under memory pressure (spill counts drive the
// anti-cyclic behaviour).
func BenchmarkAblationSortVsHashCombine(b *testing.B) {
	run := func(strategy string) int64 {
		spec := cluster.Spec{Nodes: 2, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 200, NetMiBps: 200}
		rt, err := cluster.NewRuntime(spec, 4)
		if err != nil {
			b.Fatal(err)
		}
		conf := core.NewConfig().
			SetBytes(core.FlinkTaskManagerMemory, 64*core.KB).
			SetFloat(core.FlinkMemoryFraction, 1.0).
			SetInt(core.FlinkDefaultParallelism, 2).
			SetInt(core.FlinkNetworkBuffers, 8192).
			Set(flink.FlinkCombineStrategy, strategy)
		env := flink.NewEnv(conf, rt, dfs.New(2, 64*core.KB, 1))
		recs := make([]core.Pair[int64, int64], 20000)
		for i := range recs {
			recs[i] = core.KV(int64(i), int64(1))
		}
		ds := flink.FromSlice(env, recs, 2)
		red := flink.Sum(flink.GroupBy(ds, func(p core.Pair[int64, int64]) int64 { return p.Key }).WithParallelism(2))
		if _, err := flink.Collect(red); err != nil {
			b.Fatal(err)
		}
		return env.Metrics().SpillCount.Load()
	}
	var sortSpills, hashSpills int64
	for i := 0; i < b.N; i++ {
		sortSpills = run("sort")
		hashSpills = run("hash")
	}
	b.ReportMetric(float64(sortSpills), "sort_spills")
	b.ReportMetric(float64(hashSpills), "hash_spills")
}

// BenchmarkAblationDeltaVsBulkCC compares Flink's iteration variants on
// the medium graph (the paper's §III assessment).
func BenchmarkAblationDeltaVsBulkCC(b *testing.B) {
	conf := core.NewConfig().SetBytes(core.FlinkTaskManagerMemory, 62*core.GB)
	p := sim.Params{Spec: cluster.Grid5000(27), Engine: sim.Flink, Conf: conf}
	job := sim.GraphJob{Algo: sim.ConnComp, Graph: datagen.MediumGraph, SizeBytes: 30822 * core.MB, Iterations: 23}
	var delta, bulk float64
	for i := 0; i < b.N; i++ {
		delta = job.Run(p).Seconds
		bulkJob := job
		bulkJob.BulkCC = true
		bulk = bulkJob.Run(p).Seconds
	}
	b.ReportMetric(delta, "delta_s")
	b.ReportMetric(bulk, "bulk_s")
}

// BenchmarkAblationSerializer sweeps spark.serializer on Word Count.
func BenchmarkAblationSerializer(b *testing.B) {
	var java, kryo float64
	for i := 0; i < b.N; i++ {
		for _, ser := range []string{"java", "kryo"} {
			conf := core.NewConfig().Set(core.SparkSerializer, ser)
			p := sim.Params{Spec: cluster.Grid5000(32), Engine: sim.Spark, Conf: conf}
			t := sim.WordCountJob{TotalBytes: 768 * core.GB}.Run(p).Seconds
			if ser == "java" {
				java = t
			} else {
				kryo = t
			}
		}
	}
	b.ReportMetric(java, "java_s")
	b.ReportMetric(kryo, "kryo_s")
	if kryo >= java {
		b.Fatalf("kryo (%.0f) should beat java (%.0f) — Section IV-D", kryo, java)
	}
}

// BenchmarkAblationParallelism reproduces §VI-A: halving Spark's WC
// parallelism to 2×cores costs ~10%.
func BenchmarkAblationParallelism(b *testing.B) {
	run := func(par int) float64 {
		conf := core.NewConfig().SetInt(core.SparkDefaultParallelism, par)
		p := sim.Params{Spec: cluster.Grid5000(8), Engine: sim.Spark, Conf: conf}
		return sim.WordCountJob{TotalBytes: 192 * core.GB}.Run(p).Seconds
	}
	var tuned, low float64
	for i := 0; i < b.N; i++ {
		tuned = run(8 * 16 * 3)
		low = run(8 * 16 / 2) // half a task per core: under-subscription
	}
	b.ReportMetric(tuned, "tuned_s")
	b.ReportMetric(low, "low_par_s")
	if low < tuned*1.05 {
		b.Fatalf("under-subscribed run (%.0f) should cost ≈10%% over tuned (%.0f)", low, tuned)
	}
}

// BenchmarkAblationEdgePartitions sweeps spark.edge.partitions on the
// medium graph (§VI-E: drops when increased or decreased too far).
func BenchmarkAblationEdgePartitions(b *testing.B) {
	run := func(parts int) float64 {
		conf := core.NewConfig().
			SetBytes(core.SparkExecutorMemory, 96*core.GB).
			SetInt(core.SparkEdgePartitions, parts)
		p := sim.Params{Spec: cluster.Grid5000(27), Engine: sim.Spark, Conf: conf}
		return sim.GraphJob{Algo: sim.PageRank, Graph: datagen.MediumGraph,
			SizeBytes: 30822 * core.MB, Iterations: 20}.Run(p).Seconds
	}
	var tuned, high, low float64
	for i := 0; i < b.N; i++ {
		tuned = run(27 * 16)    // one per core
		high = run(27 * 16 * 6) // 6× cores: more files to handle
		low = run(27 * 4)       // far too few: idle cores
	}
	b.ReportMetric(tuned, "tuned_s")
	b.ReportMetric(high, "high_parts_s")
	b.ReportMetric(low, "low_parts_s")
	if high <= tuned || low <= tuned {
		b.Fatalf("edge-partition sweep should be U-shaped: low=%.0f tuned=%.0f high=%.0f", low, tuned, high)
	}
}

// --- Real-engine microbenchmarks --------------------------------------------

// engineFixture builds matched spark and flink dataflow sessions over the
// same topology with identical inputs; all Engine* benchmarks go through
// the unified dataflow API.
func engineFixture(b *testing.B) (*dataflow.Session, *dataflow.Session) {
	b.Helper()
	spec := cluster.Spec{Nodes: 2, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 500, NetMiBps: 500}
	srt, err := cluster.NewRuntime(spec, 4)
	if err != nil {
		b.Fatal(err)
	}
	frt, err := cluster.NewRuntime(spec, 4)
	if err != nil {
		b.Fatal(err)
	}
	text := datagen.Text(5, 512*1024, 10)
	sfs := dfs.New(2, 64*core.KB, 1)
	sfs.WriteFile("wiki", text)
	ffs := dfs.New(2, 64*core.KB, 1)
	ffs.WriteFile("wiki", text)
	sparkS := dataflow.NewSession(spark.NewContext(
		core.NewConfig().SetInt(core.SparkDefaultParallelism, 8), srt, sfs))
	flinkS := dataflow.NewSession(flink.NewEnv(
		core.NewConfig().SetInt(core.FlinkDefaultParallelism, 4).
			SetInt(core.FlinkNetworkBuffers, 8192), frt, ffs))
	return sparkS, flinkS
}

func mrEngineFixture(b *testing.B) *dataflow.Session {
	b.Helper()
	spec := cluster.Spec{Nodes: 2, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 500, NetMiBps: 500}
	rt, err := cluster.NewRuntime(spec, 4)
	if err != nil {
		b.Fatal(err)
	}
	fs := dfs.New(2, 64*core.KB, 1)
	fs.WriteFile("wiki", datagen.Text(5, 512*1024, 10))
	return dataflow.NewSession(mapreduce.NewCluster(core.NewConfig(), rt, fs))
}

func BenchmarkEngineWordCountMapReduce(b *testing.B) {
	s := mrEngineFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := workloads.WordCount(s, "wiki", fmt.Sprintf("out%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineGrepMapReduce(b *testing.B) {
	s := mrEngineFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workloads.Grep(s, "wiki", "the"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineTeraSortMapReduce(b *testing.B) {
	s := mrEngineFixture(b)
	data := datagen.TeraGen(3, 5000)
	s.FS().WriteFile("tera", data)
	part := workloads.TeraPartitioner(data, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := workloads.TeraSort(s, "tera", "tera-out", part); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineKMeansMapReduce(b *testing.B) {
	points, _ := datagen.KMeansPoints(9, 5000, 3, 2.0)
	s := mrEngineFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workloads.KMeans(s, points, 3, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineWordCountSpark(b *testing.B) {
	s, _ := engineFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := workloads.WordCount(s, "wiki", fmt.Sprintf("out%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineWordCountFlink(b *testing.B) {
	_, s := engineFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := workloads.WordCount(s, "wiki", fmt.Sprintf("out%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineGrepSpark(b *testing.B) {
	s, _ := engineFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workloads.Grep(s, "wiki", "the"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineGrepFlink(b *testing.B) {
	_, s := engineFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workloads.Grep(s, "wiki", "the"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineTeraSortSpark(b *testing.B) {
	s, _ := engineFixture(b)
	data := datagen.TeraGen(3, 5000)
	s.FS().WriteFile("tera", data)
	part := workloads.TeraPartitioner(data, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := workloads.TeraSort(s, "tera", "tera-out", part); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineTeraSortFlink(b *testing.B) {
	_, s := engineFixture(b)
	data := datagen.TeraGen(3, 5000)
	s.FS().WriteFile("tera", data)
	part := workloads.TeraPartitioner(data, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := workloads.TeraSort(s, "tera", "tera-out", part); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineKMeans(b *testing.B) {
	points, _ := datagen.KMeansPoints(9, 5000, 3, 2.0)
	b.Run("spark", func(b *testing.B) {
		s, _ := engineFixture(b)
		for i := 0; i < b.N; i++ {
			if _, err := workloads.KMeans(s, points, 3, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flink", func(b *testing.B) {
		_, s := engineFixture(b)
		for i := 0; i < b.N; i++ {
			if _, err := workloads.KMeans(s, points, 3, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEngineConnectedComponents(b *testing.B) {
	edges := datagen.RMAT(12, datagen.GraphSpec{Name: "bench", Vertices: 256, Edges: 1024})
	run := func(b *testing.B, s *dataflow.Session) {
		for i := 0; i < b.N; i++ {
			if _, _, err := workloads.ConnectedComponents(s, edges, 30); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("spark", func(b *testing.B) { s, _ := engineFixture(b); run(b, s) })
	b.Run("flink-delta", func(b *testing.B) { _, s := engineFixture(b); run(b, s) })
}

// BenchmarkEnginePageRankUnified measures the real engines end to end on
// the unified graph workload — one definition, three Pregel lowerings.
func BenchmarkEnginePageRankUnified(b *testing.B) {
	edges := datagen.RMAT(12, datagen.GraphSpec{Name: "bench", Vertices: 256, Edges: 1024})
	run := func(b *testing.B, s *dataflow.Session) {
		for i := 0; i < b.N; i++ {
			if _, _, err := workloads.PageRank(s, edges, 10); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("spark", func(b *testing.B) { s, _ := engineFixture(b); run(b, s) })
	b.Run("flink", func(b *testing.B) { _, s := engineFixture(b); run(b, s) })
	b.Run("mapreduce", func(b *testing.B) { run(b, mrEngineFixture(b)) })
}

// TestBenchmarksSmoke keeps the benchmark harness correct under plain
// `go test` (every experiment id used above must exist and run).
func TestBenchmarksSmoke(t *testing.T) {
	for _, id := range experiments.IDs() {
		r, _ := experiments.Get(id)
		if _, err := r.Run(); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
	if !strings.Contains(fmt.Sprint(experiments.IDs()), "tab7") {
		t.Error("registry missing tab7")
	}
}
