package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/memory"
	"repro/internal/serde"
	"repro/internal/stats"
)

func params(engine EngineKind, nodes int, edit func(*core.Config)) Params {
	c := core.NewConfig()
	if edit != nil {
		edit(c)
	}
	return Params{Spec: cluster.Grid5000(nodes), Engine: engine, Conf: c}
}

// within asserts |got-want| <= tol×want.
func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*want {
		t.Errorf("%s = %.0f, want %.0f ± %.0f%%", name, got, want, tol*100)
	}
}

func TestAnchorsWordCount(t *testing.T) {
	job := WordCountJob{TotalBytes: 768 * core.GB}
	edit := func(c *core.Config) {
		c.SetInt(core.SparkDefaultParallelism, 1024)
		c.SetInt(core.FlinkDefaultParallelism, 512)
	}
	s := job.Run(params(Spark, 32, edit))
	f := job.Run(params(Flink, 32, edit))
	within(t, "spark WC@32", s.Seconds, 572, 0.10)
	within(t, "flink WC@32", f.Seconds, 543, 0.10)
	if f.Seconds >= s.Seconds {
		t.Error("Flink must win Word Count at 32 nodes (paper fig 1/3)")
	}
}

func TestAnchorsGrep(t *testing.T) {
	job := GrepJob{TotalBytes: 768 * core.GB, Selectivity: 0.1}
	s := job.Run(params(Spark, 32, nil))
	f := job.Run(params(Flink, 32, nil))
	within(t, "spark Grep@32", s.Seconds, 275, 0.10)
	within(t, "flink Grep@32", f.Seconds, 331, 0.10)
	adv := f.Seconds / s.Seconds
	if adv < 1.05 || adv > 1.35 {
		t.Errorf("Spark's Grep advantage = %.2fx, paper reports up to ~20%%", adv)
	}
}

func TestAnchorsTeraSort(t *testing.T) {
	job := TeraSortJob{TotalBytes: 3584 * core.GB}
	s := job.Run(params(Spark, 55, nil))
	f := job.Run(params(Flink, 55, nil))
	within(t, "spark TS@55", s.Seconds, 5079, 0.10)
	within(t, "flink TS@55", f.Seconds, 4669, 0.10)
	if f.Seconds >= s.Seconds {
		t.Error("Flink must win Tera Sort (paper fig 9)")
	}
}

func TestAnchorsKMeans(t *testing.T) {
	job := KMeansJob{TotalBytes: 51 * core.GB, Iterations: 10}
	s := job.Run(params(Spark, 24, nil))
	f := job.Run(params(Flink, 24, nil))
	within(t, "spark KM@24", s.Seconds, 278, 0.10)
	within(t, "flink KM@24", f.Seconds, 244, 0.10)
	if (s.Seconds-f.Seconds)/s.Seconds < 0.10 {
		t.Error("Flink's bulk iterations must beat loop unrolling by >10% (paper §VI-D)")
	}
}

func TestAnchorsSmallGraph(t *testing.T) {
	pr := GraphJob{Algo: PageRank, Graph: datagen.SmallGraph, SizeBytes: 14029 * core.MB, Iterations: 20}
	edit := func(c *core.Config) {
		c.SetBytes(core.SparkExecutorMemory, 96*core.GB)
		c.SetBytes(core.FlinkTaskManagerMemory, 18*core.GB)
	}
	s := pr.Run(params(Spark, 27, edit))
	f := pr.Run(params(Flink, 27, edit))
	within(t, "spark PR small@27", s.Seconds, 232, 0.12)
	within(t, "flink PR small@27", f.Seconds, 192, 0.12)
	if f.Seconds >= s.Seconds {
		t.Error("Flink must be slightly better on the small graph (paper fig 12)")
	}
}

func TestAnchorsMediumCC(t *testing.T) {
	cc := GraphJob{Algo: ConnComp, Graph: datagen.MediumGraph, SizeBytes: 30822 * core.MB, Iterations: 23}
	edit := func(c *core.Config) {
		c.SetBytes(core.SparkExecutorMemory, 96*core.GB)
		c.SetBytes(core.FlinkTaskManagerMemory, 18*core.GB)
	}
	s := cc.Run(params(Spark, 27, edit))
	f := cc.Run(params(Flink, 27, edit))
	within(t, "spark CC medium@27", s.Seconds, 388, 0.12)
	within(t, "flink CC medium@27", f.Seconds, 267, 0.12)
	adv := s.Seconds / f.Seconds
	if adv < 1.2 || adv > 1.5 {
		t.Errorf("Flink CC advantage on medium graph = %.2fx, paper reports up to ~30%%", adv)
	}
}

func TestWeakScalingWordCount(t *testing.T) {
	// Fig 1: fixed 24 GB per node; both frameworks scale well (time grows
	// slowly), similar at small clusters, Flink slightly ahead at 16/32.
	perNode := 24 * core.GB
	var prevS, prevF float64
	for _, n := range []int{2, 4, 8, 16, 32} {
		job := WordCountJob{TotalBytes: core.ByteSize(n) * perNode}
		s := job.Run(params(Spark, n, nil)).Seconds
		f := job.Run(params(Flink, n, nil)).Seconds
		if prevS > 0 {
			if s > prevS*1.25 || f > prevF*1.25 {
				t.Errorf("weak scaling broke at %d nodes: spark %.0f→%.0f flink %.0f→%.0f",
					n, prevS, s, prevF, f)
			}
		}
		if n >= 16 && f >= s {
			t.Errorf("at %d nodes Flink (%.0f) should beat Spark (%.0f)", n, f, s)
		}
		prevS, prevF = s, f
	}
}

func TestStrongScalingWordCountData(t *testing.T) {
	// Fig 2: 16 nodes, growing datasets: Flink consistently ~10% faster.
	for _, gbPerNode := range []int{24, 27, 30, 33} {
		job := WordCountJob{TotalBytes: core.ByteSize(16*gbPerNode) * core.GB}
		s := job.Run(params(Spark, 16, nil)).Seconds
		f := job.Run(params(Flink, 16, nil)).Seconds
		adv := (s - f) / s
		if adv < 0.02 || adv > 0.20 {
			t.Errorf("%dGB/node: flink advantage %.0f%%, want ≈10%%", gbPerNode, adv*100)
		}
	}
}

func TestTeraSortVarianceHigherForFlink(t *testing.T) {
	// Fig 7: Flink wins on average but with higher run-to-run variance.
	job := TeraSortJob{TotalBytes: core.ByteSize(34*32) * core.GB}
	sTimes, err := Trials(job, params(Spark, 34, nil), 5)
	if err != nil {
		t.Fatal(err)
	}
	fTimes, err := Trials(job, params(Flink, 34, nil), 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mean(fTimes) >= stats.Mean(sTimes) {
		t.Errorf("flink mean %.0f should beat spark mean %.0f", stats.Mean(fTimes), stats.Mean(sTimes))
	}
	if stats.CoefficientOfVariation(fTimes) <= stats.CoefficientOfVariation(sTimes) {
		t.Error("flink's variance should exceed spark's (pipelined I/O interference)")
	}
}

func TestTeraSortFlinkAdvantageGrowsWithCluster(t *testing.T) {
	// Fig 8: same 3.5 TB dataset, growing cluster: Flink's edge increases.
	total := 3584 * core.GB
	var prevAdv float64
	for _, n := range []int{55, 73, 97} {
		job := TeraSortJob{TotalBytes: total}
		s := job.Run(params(Spark, n, nil)).Seconds
		f := job.Run(params(Flink, n, nil)).Seconds
		adv := (s - f) / s
		if adv <= 0 {
			t.Errorf("at %d nodes flink (%.0f) should beat spark (%.0f)", n, f, s)
		}
		if prevAdv > 0 && adv < prevAdv*0.8 {
			t.Errorf("flink's advantage should not shrink with cluster size: %.1f%% → %.1f%%", prevAdv*100, adv*100)
		}
		prevAdv = adv
	}
}

func TestKMeansScaling(t *testing.T) {
	// Fig 11: same dataset, growing cluster: times drop, Flink ahead.
	var prevS float64
	for _, n := range []int{8, 14, 20, 24} {
		job := KMeansJob{TotalBytes: 51 * core.GB, Iterations: 10}
		s := job.Run(params(Spark, n, nil)).Seconds
		f := job.Run(params(Flink, n, nil)).Seconds
		if prevS > 0 && s >= prevS {
			t.Errorf("spark K-Means did not scale down: %.0f → %.0f at %d nodes", prevS, s, n)
		}
		if f >= s {
			t.Errorf("flink (%.0f) should beat spark (%.0f) at %d nodes", f, s, n)
		}
		prevS = s
	}
}

func TestTableVIIFailureMatrix(t *testing.T) {
	large := func(algo GraphAlgo, iters int) GraphJob {
		return GraphJob{Algo: algo, Graph: datagen.LargeGraph, SizeBytes: 1229 * core.GB, Iterations: iters}
	}
	conf := func(nodes, flinkPar, edgeParts int) func(*core.Config) {
		return func(c *core.Config) {
			c.SetBytes(core.SparkExecutorMemory, 62*core.GB)
			c.SetBytes(core.FlinkTaskManagerMemory, 62*core.GB)
			c.SetInt(core.FlinkDefaultParallelism, flinkPar)
			c.SetInt(core.SparkEdgePartitions, edgeParts)
		}
	}
	// Flink fails at 27 and 44 nodes (CoGroup solution set in memory).
	for _, n := range []int{27, 44} {
		res := large(PageRank, 5).Run(params(Flink, n, conf(n, n*16, 0)))
		if !res.Failed() {
			t.Errorf("flink large graph at %d nodes must fail (Table VII)", n)
		}
		if !errors.Is(res.Err, memory.ErrSolutionSetTooLarge) {
			t.Errorf("failure should be the solution-set OOM, got %v", res.Err)
		}
	}
	// At 97 nodes full parallelism still fails; ¾ of the cores passes.
	if res := large(PageRank, 5).Run(params(Flink, 97, conf(97, 97*16, 0))); !res.Failed() {
		t.Error("flink at 97 nodes × 16 slots must fail (paper: full parallelism crashes)")
	}
	res97 := large(PageRank, 5).Run(params(Flink, 97, conf(97, 97*12, 0)))
	if res97.Failed() {
		t.Errorf("flink at 97 nodes × 12 slots must pass: %v", res97.Err)
	}
	// Spark needs doubled edge partitions at 27 nodes.
	if res := large(PageRank, 5).Run(params(Spark, 27, conf(27, 0, 27*16))); !res.Failed() {
		t.Error("spark at 27 nodes with cores-count partitions must fail the load")
	}
	sres := large(ConnComp, 10).Run(params(Spark, 27, conf(27, 0, 27*16*2)))
	if sres.Failed() {
		t.Errorf("spark at 27 nodes with doubled partitions must pass: %v", sres.Err)
	}
	// Headline: at 97 nodes Spark beats Flink overall (~1.7x in the paper).
	sp := large(ConnComp, 10).Run(params(Spark, 97, conf(97, 0, 97*16*2)))
	fl := large(ConnComp, 10).Run(params(Flink, 97, conf(97, 97*12, 0)))
	if sp.Failed() || fl.Failed() {
		t.Fatalf("97-node runs failed: spark=%v flink=%v", sp.Err, fl.Err)
	}
	ratio := fl.Seconds / sp.Seconds
	if ratio < 1.3 || ratio > 2.5 {
		t.Errorf("spark's large-graph advantage = %.2fx, paper reports ≈1.7-2x", ratio)
	}
}

func TestDeltaVsBulkCCAblation(t *testing.T) {
	cc := GraphJob{Algo: ConnComp, Graph: datagen.MediumGraph, SizeBytes: 30822 * core.MB, Iterations: 23}
	edit := func(c *core.Config) { c.SetBytes(core.FlinkTaskManagerMemory, 62*core.GB) }
	delta := cc.Run(params(Flink, 27, edit))
	bulk := cc
	bulk.BulkCC = true
	bulkRes := bulk.Run(params(Flink, 27, edit))
	if delta.Failed() || bulkRes.Failed() {
		t.Fatalf("runs failed: %v %v", delta.Err, bulkRes.Err)
	}
	if bulkRes.Seconds <= delta.Seconds*1.2 {
		t.Errorf("bulk CC (%.0f) should be clearly slower than delta CC (%.0f) — the paper's delta speedup",
			bulkRes.Seconds, delta.Seconds)
	}
}

// TestStagedTeraSortSlowerThanPipelined is the pipelining ablation: Flink's
// Tera Sort of 3.5 TB on 55 nodes runs slower with its pipeline cut into
// stages than pipelined (6338 s against 4743 s), so the pipeline is where
// its advantage over Spark comes from.
func TestStagedTeraSortSlowerThanPipelined(t *testing.T) {
	p := params(Flink, 55, nil)
	piped := TeraSortJob{TotalBytes: 3584 * core.GB}.Run(p)
	staged := TeraSortJob{TotalBytes: 3584 * core.GB, DisablePipeline: true}.Run(p)
	if piped.Failed() || staged.Failed() {
		t.Fatalf("runs failed: %v %v", piped.Err, staged.Err)
	}
	if staged.Seconds <= piped.Seconds {
		t.Errorf("staged flink (%.0f s) should be slower than pipelined (%.0f s)", staged.Seconds, piped.Seconds)
	}
}

// TestEdgePartitionSweepIsUShaped is §VI-E: Spark's Page Rank on the medium
// graph slows down when spark.edge.partitions goes far below one partition a
// core (idle cores) or far above it (more files to handle) — 440.7 s at a
// quarter, 419.6 s at one, 472.3 s at six partitions a core.
func TestEdgePartitionSweepIsUShaped(t *testing.T) {
	run := func(parts int) float64 {
		r := GraphJob{Algo: PageRank, Graph: datagen.MediumGraph, SizeBytes: 30822 * core.MB, Iterations: 20}.
			Run(params(Spark, 27, func(c *core.Config) {
				c.SetBytes(core.SparkExecutorMemory, 96*core.GB).SetInt(core.SparkEdgePartitions, parts)
			}))
		if r.Failed() {
			t.Fatalf("%d edge partitions: %v", parts, r.Err)
		}
		return r.Seconds
	}
	low, tuned, high := run(27*4), run(27*16), run(27*16*6)
	if high <= tuned || low <= tuned {
		t.Errorf("edge-partition sweep should be U-shaped: low=%.1f tuned=%.1f high=%.1f", low, tuned, high)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	job := TeraSortJob{TotalBytes: 512 * core.GB}
	a := job.Run(params(Flink, 16, nil))
	b := job.Run(params(Flink, 16, nil))
	if a.Seconds != b.Seconds {
		t.Errorf("same seed produced %.3f and %.3f", a.Seconds, b.Seconds)
	}
	c := Params{Spec: cluster.Grid5000(16), Engine: Flink, Conf: core.NewConfig(), Seed: 99}
	if job.Run(c).Seconds == a.Seconds {
		t.Error("different seeds should jitter the result")
	}
}

func TestWordCountAntiCyclicDiskForFlink(t *testing.T) {
	// Fig 3's Flink panel: disk utilization alternates against CPU (the
	// sort-based combiner). Count crossings of the disk-util series
	// between high and low during the run.
	job := WordCountJob{TotalBytes: 768 * core.GB}
	f := job.Run(params(Flink, 32, nil))
	util := f.Corr.Usage.DiskUtil
	vals := util.Resample(10, f.Seconds*0.9, 64)
	crossings := 0
	high := false
	for _, v := range vals {
		if !high && v > 60 {
			high = true
			crossings++
		}
		if high && v < 30 {
			high = false
			crossings++
		}
	}
	if crossings < 6 {
		t.Errorf("flink WC disk utilization should alternate (anti-cyclic), saw %d crossings", crossings)
	}
}

func TestSparkStagesAreSeparated(t *testing.T) {
	// Fig 9: "Flink pipelines the execution, hence it is visualized in a
	// single stage, while in Spark the separation between stages is very
	// clear."
	job := TeraSortJob{TotalBytes: 1024 * core.GB}
	s := job.Run(params(Spark, 32, nil))
	spans := s.Corr.Timeline.Spans()
	if len(spans) != 2 {
		t.Fatalf("spark terasort should show 2 stage spans, got %d", len(spans))
	}
	if spans[1].Start < spans[0].End-1e-9 {
		t.Error("spark stage 2 must start after stage 1's barrier")
	}
	f := job.Run(params(Flink, 32, nil))
	fspans := f.Corr.Timeline.Spans()
	overlap := false
	for i := 1; i < len(fspans); i++ {
		if fspans[i].Start < fspans[0].End {
			overlap = true
		}
	}
	if !overlap {
		t.Error("flink spans should overlap — pipelined single-stage execution")
	}
}

func TestCorrelationRender(t *testing.T) {
	job := GrepJob{TotalBytes: 128 * core.GB}
	res := job.Run(params(Flink, 8, nil))
	out := res.Corr.Render(60)
	for _, frag := range []string{"CPU %", "I/O MiB/s", "total execution"} {
		if !strings.Contains(out, frag) {
			t.Errorf("rendered figure missing %q:\n%s", frag, out)
		}
	}
}

func TestCalibrationSerdeRatios(t *testing.T) {
	// The serdeFactor constants claim provenance from measured codecs;
	// verify the measured ordering still supports them.
	sample := make([]core.Pair[string, int64], 256)
	for i := range sample {
		sample[i] = core.KV("loremipsum", int64(i))
	}
	measure := func(s serde.Style) float64 {
		c := serde.PairCodec(s, serde.StringCodec(s), serde.Int64Codec(s))
		return serde.Measure(c, sample, 20).BytesPerRecord
	}
	java, kryo, ti := measure(serde.Java), measure(serde.Kryo), measure(serde.TypeInfo)
	if !(java > kryo && kryo > ti) {
		t.Errorf("measured byte sizes must order java>kryo>typeinfo: %v %v %v", java, kryo, ti)
	}
	if java/ti < 1.2 {
		t.Errorf("java/typeinfo size ratio %.2f too small to justify bytesFactorJava", java/ti)
	}
}

func TestParallelismPenaltyShape(t *testing.T) {
	// Section VI-A: halving spark's parallelism to 2 tasks/core kept it in
	// the sweet spot, but dropping below one task per core costs ~10-25%,
	// and far too many tasks costs overhead.
	if parallelismPenalty(2) != 1.0 || parallelismPenalty(3) != 1.0 {
		t.Error("2-3 tasks per core is the documented sweet spot")
	}
	if parallelismPenalty(0.5) <= 1.05 {
		t.Error("under-subscription must cost >5%")
	}
	if parallelismPenalty(10) <= 1.05 {
		t.Error("heavy over-subscription must cost >5%")
	}
}

func TestGrepFlinkSinkPhaseUnderutilizesCPU(t *testing.T) {
	// Fig 6's mechanism: the flink count phase runs near single-threaded.
	job := GrepJob{TotalBytes: 768 * core.GB, Selectivity: 0.1}
	f := job.Run(params(Flink, 32, nil))
	cpu := f.Corr.Usage.CPUPercent
	// CPU% in the last 15% of the run should be far below the scan phase.
	scan := cpu.Avg(f.Seconds*0.2, f.Seconds*0.5)
	tail := cpu.Avg(f.Seconds*0.9, f.Seconds)
	if tail > scan*0.5 {
		t.Errorf("flink grep tail CPU%% (%.0f) should collapse vs scan (%.0f)", tail, scan)
	}
}
