package workloads

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/engine/mapreduce"
	"repro/internal/engine/spark"
)

func mrFixture(t testing.TB) *mapreduce.Cluster {
	t.Helper()
	spec := cluster.Spec{Nodes: 2, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 500, NetMiBps: 500}
	rt, err := cluster.NewRuntime(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	return mapreduce.NewCluster(core.NewConfig(), rt, dfs.New(2, 64*core.KB, 1))
}

// TestWordCountThreeEngineAgreement runs the same input through all three
// engines and requires identical word counts — the correctness anchor for
// the multi-backend comparison.
func TestWordCountThreeEngineAgreement(t *testing.T) {
	text := datagen.Text(7, 128*1024, 10)

	// Reference counts.
	want := map[string]int64{}
	for _, w := range strings.Fields(string(text)) {
		want[w]++
	}

	// MapReduce.
	mc := mrFixture(t)
	mc.FS().WriteFile("wiki", text)
	if err := WordCountMapReduce(mc, "wiki", "wc-out"); err != nil {
		t.Fatal(err)
	}
	f, err := mc.FS().Open("wc-out")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, line := range strings.Split(strings.TrimRight(string(f.Contents()), "\n"), "\n") {
		w, count, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("bad output line %q", line)
		}
		n, err := strconv.ParseInt(count, 10, 64)
		if err != nil {
			t.Fatalf("bad count in line %q: %v", line, err)
		}
		got[w] = n
	}
	if len(got) != len(want) {
		t.Fatalf("mapreduce found %d distinct words, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("mapreduce count[%q] = %d, want %d", w, got[w], n)
		}
	}

	// Spark on the same input for cross-engine agreement.
	srt, _ := cluster.NewRuntime(cluster.Spec{Nodes: 2, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 500, NetMiBps: 500}, 4)
	sfs := dfs.New(2, 64*core.KB, 1)
	sfs.WriteFile("wiki", text)
	ctx := spark.NewContext(core.NewConfig().SetInt(core.SparkDefaultParallelism, 8), srt, sfs)
	if err := WordCount(dataflow.NewSession(ctx), "wiki", "wc-spark"); err != nil {
		t.Fatal(err)
	}
	sf, err := sfs.Open("wc-spark")
	if err != nil {
		t.Fatal(err)
	}
	// Spark's save formats pairs as "{word count}"; count distinct lines.
	sparkLines := strings.Count(string(sf.Contents()), "\n")
	if sparkLines != len(got) {
		t.Errorf("spark wrote %d words, mapreduce %d", sparkLines, len(got))
	}
}

func TestGrepMapReduceCount(t *testing.T) {
	c := mrFixture(t)
	data := datagen.GrepText(3, 2000, "needle", 0.25)
	c.FS().WriteFile("logs", data)
	got, err := GrepMapReduce(c, "logs", "needle")
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, "needle") {
			want++
		}
	}
	if got != want {
		t.Errorf("grep count = %d, want %d", got, want)
	}
}

func TestTeraSortMapReduceSorts(t *testing.T) {
	c := mrFixture(t)
	const records = 5000
	data := datagen.TeraGen(3, records)
	c.FS().WriteFile("tera", data)
	part := TeraPartitioner(data, 4)
	if err := TeraSortMapReduce(c, "tera", "tera-out", part); err != nil {
		t.Fatal(err)
	}
	if err := VerifyTeraSorted(c.FS(), "tera-out", records); err != nil {
		t.Error(err)
	}
}

// TestKMeansMapReduceMatchesSpark requires the disk-chained MapReduce
// K-Means to converge to the same clustering cost as Spark's cached loop.
func TestKMeansMapReduceMatchesSpark(t *testing.T) {
	points, _ := datagen.KMeansPoints(9, 3000, 3, 2.0)
	const iters = 5

	mc := mrFixture(t)
	mrCenters, err := KMeansMapReduce(mc, points, 3, iters)
	if err != nil {
		t.Fatal(err)
	}

	srt, _ := cluster.NewRuntime(cluster.Spec{Nodes: 2, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 500, NetMiBps: 500}, 4)
	ctx := spark.NewContext(core.NewConfig().SetInt(core.SparkDefaultParallelism, 8), srt, dfs.New(2, 64*core.KB, 1))
	sparkCenters, err := KMeans(dataflow.NewSession(ctx), points, 3, iters)
	if err != nil {
		t.Fatal(err)
	}

	mrCost := KMeansCost(points, mrCenters)
	sparkCost := KMeansCost(points, sparkCenters)
	// The centers round-trip through a text file, so allow float noise.
	if math.Abs(mrCost-sparkCost) > 1e-6*(1+sparkCost) {
		t.Errorf("kmeans cost: mapreduce %.6f vs spark %.6f", mrCost, sparkCost)
	}

	// The defining MapReduce behaviour: every iteration re-read the point
	// file — cumulative reads must cover iters × input size.
	pf, err := mc.FS().Open("kmeans-points")
	if err != nil {
		t.Fatal(err)
	}
	if reads := mc.Metrics().DiskBytesRead.Load(); reads < int64(iters)*pf.Size() {
		t.Errorf("disk reads %d < %d iterations × %d input bytes: input was cached?",
			reads, iters, pf.Size())
	}
}
