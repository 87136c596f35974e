package workloads

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/engine/flink"
	"repro/internal/engine/spark"
)

// pairCtx builds matched spark and flink runtimes over the same topology
// with separate filesystems holding identical inputs.
func pairCtx(t *testing.T) (*spark.Context, *flink.Env) {
	t.Helper()
	spec := cluster.Spec{Nodes: 2, CoresPerNode: 8, MemPerNode: core.GB, DiskSeqMiBps: 100, NetMiBps: 100}
	srt, err := cluster.NewRuntime(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	frt, err := cluster.NewRuntime(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	sconf := core.NewConfig()
	sconf.SetInt(core.SparkDefaultParallelism, 8)
	sconf.SetBytes(core.SparkExecutorMemory, 256*core.MB)
	fconf := core.NewConfig()
	fconf.SetInt(core.FlinkDefaultParallelism, 4)
	fconf.SetBytes(core.FlinkTaskManagerMemory, 256*core.MB)
	fconf.SetInt(core.FlinkNetworkBuffers, 8192)
	ctx := spark.NewContext(sconf, srt, dfs.New(spec.Nodes, 16*core.KB, 1))
	env := flink.NewEnv(fconf, frt, dfs.New(spec.Nodes, 16*core.KB, 1))
	return ctx, env
}

func writeBoth(ctx *spark.Context, env *flink.Env, name string, data []byte) {
	ctx.FS().WriteFile(name, data)
	env.FS().WriteFile(name, data)
}

// parseCounts reads "(word,N)"-ish save output into a map. Both engines
// print core.Pair via fmt, producing "{word N}" lines.
func parseCounts(t *testing.T, fs *dfs.FS, name string) map[string]int64 {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(string(f.Contents())), "\n") {
		line = strings.Trim(line, "{}")
		parts := strings.Fields(line)
		if len(parts) != 2 {
			t.Fatalf("unparseable count line %q", line)
		}
		n, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		out[parts[0]] = n
	}
	return out
}

func TestWordCountBothEnginesAgree(t *testing.T) {
	ctx, env := pairCtx(t)
	text := datagen.Text(1, 64*1024, 10)
	writeBoth(ctx, env, "wiki", text)

	if err := WordCount(dataflow.NewSession(ctx), "wiki", "out-s"); err != nil {
		t.Fatal(err)
	}
	if err := WordCount(dataflow.NewSession(env), "wiki", "out-f"); err != nil {
		t.Fatal(err)
	}
	sc := parseCounts(t, ctx.FS(), "out-s")
	fc := parseCounts(t, env.FS(), "out-f")
	if len(sc) == 0 || len(sc) != len(fc) {
		t.Fatalf("distinct words: spark=%d flink=%d", len(sc), len(fc))
	}
	for w, n := range sc {
		if fc[w] != n {
			t.Errorf("count[%q]: spark=%d flink=%d", w, n, fc[w])
		}
	}
	// Reference check against a direct count.
	ref := map[string]int64{}
	for _, w := range strings.Fields(string(text)) {
		ref[w]++
	}
	for w, n := range ref {
		if sc[w] != n {
			t.Errorf("spark count[%q] = %d, want %d", w, sc[w], n)
		}
	}
	// Both use a map-side combiner (the paper's aggregation component).
	if ctx.Metrics().CombineRatio() <= 1 || env.Metrics().CombineRatio() <= 1 {
		t.Error("both engines should combine map-side on zipf text")
	}
}

func TestGrepBothEnginesAgree(t *testing.T) {
	ctx, env := pairCtx(t)
	text := datagen.GrepText(2, 5000, "NEEDLE", 0.07)
	writeBoth(ctx, env, "logs", text)
	want := int64(strings.Count(string(text), "NEEDLE"))

	sn, err := Grep(dataflow.NewSession(ctx), "logs", "NEEDLE")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := Grep(dataflow.NewSession(env), "logs", "NEEDLE")
	if err != nil {
		t.Fatal(err)
	}
	if sn != want || fn != want {
		t.Errorf("grep counts: spark=%d flink=%d want=%d", sn, fn, want)
	}
}

func TestGrepMultiFilterCachingAdvantage(t *testing.T) {
	ctx, env := pairCtx(t)
	text := datagen.GrepText(3, 3000, "alpha", 0.1)
	writeBoth(ctx, env, "logs", text)
	patterns := []string{"alpha", "ba", "re"}

	// One definition, two engines: the caching asymmetry comes from the
	// lowering of the Cached() hint, not from per-engine code.
	sres, err := GrepMultiFilter(dataflow.NewSession(ctx), "logs", patterns)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := GrepMultiFilter(dataflow.NewSession(env), "logs", patterns)
	if err != nil {
		t.Fatal(err)
	}
	for i := range patterns {
		if sres[i] != fres[i] {
			t.Errorf("pattern %q: spark=%d flink=%d", patterns[i], sres[i], fres[i])
		}
	}
	// Spark read the input once (cache hits thereafter); Flink re-read it
	// per pattern — the persistence-control advantage of Section VI-B.
	if ctx.Metrics().CacheHits.Load() == 0 {
		t.Error("spark multi-filter should hit its cache")
	}
	sparkReads := ctx.Metrics().RecordsRead.Load()
	flinkReads := env.Metrics().RecordsRead.Load()
	if flinkReads < 2*sparkReads {
		t.Errorf("flink should re-read input per filter: flink=%d spark=%d records", flinkReads, sparkReads)
	}
}

func TestTeraSortBothEnginesProduceSortedOutput(t *testing.T) {
	ctx, env := pairCtx(t)
	const records = 3000
	data := datagen.TeraGen(7, records)
	writeBoth(ctx, env, "tera-in", data)
	part := TeraPartitioner(data, 4)

	if err := TeraSort(dataflow.NewSession(ctx), "tera-in", "tera-out", part); err != nil {
		t.Fatal(err)
	}
	if err := VerifyTeraSorted(ctx.FS(), "tera-out", records); err != nil {
		t.Errorf("spark terasort: %v", err)
	}
	if err := TeraSort(dataflow.NewSession(env), "tera-in", "tera-out", part); err != nil {
		t.Fatal(err)
	}
	if err := VerifyTeraSorted(env.FS(), "tera-out", records); err != nil {
		t.Errorf("flink terasort: %v", err)
	}
	// Identical input and partitioner ⇒ byte-identical sorted output...
	sf, _ := ctx.FS().Open("tera-out")
	ff, _ := env.FS().Open("tera-out")
	sKeys := keysOf(sf.Contents())
	fKeys := keysOf(ff.Contents())
	if fmt.Sprint(sKeys[:10]) != fmt.Sprint(fKeys[:10]) {
		t.Error("engines disagree on sorted key order")
	}
}

func keysOf(data []byte) []string {
	var keys []string
	for off := 0; off+datagen.TeraRecordSize <= len(data); off += datagen.TeraRecordSize {
		keys = append(keys, string(data[off:off+datagen.TeraKeySize]))
	}
	return keys
}

func TestKMeansBothEnginesConverge(t *testing.T) {
	ctx, env := pairCtx(t)
	points, _ := datagen.KMeansPoints(11, 3000, 3, 2.0)

	sc, err := KMeans(dataflow.NewSession(ctx), points, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := KMeans(dataflow.NewSession(env), points, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	sCost := KMeansCost(points, sc)
	fCost := KMeansCost(points, fc)
	if math.Abs(sCost-fCost) > 1e-6*sCost {
		t.Errorf("k-means costs diverge: spark=%v flink=%v", sCost, fCost)
	}
	// Both must have actually clustered: cost far below the 1-cluster cost.
	single := KMeansCost(points, []datagen.Point{{X: 0, Y: 0}})
	if sCost > single/10 {
		t.Errorf("clustering failed: cost %v vs single-center %v", sCost, single)
	}
	// Spark scheduled stages per iteration; Flink one round.
	if ctx.Metrics().SchedulingRounds.Load() < 10 {
		t.Error("spark k-means should schedule per iteration (loop unrolling)")
	}
	if env.Metrics().SchedulingRounds.Load() > 3 {
		t.Errorf("flink k-means used %d scheduling rounds, expected ≤3 (bulk iteration)",
			env.Metrics().SchedulingRounds.Load())
	}
}

func TestPageRankBothEnginesAgree(t *testing.T) {
	ctx, env := pairCtx(t)
	// Strongly connected graph so both engines' sink handling is
	// irrelevant: a bidirected RMAT graph.
	base := datagen.RMAT(17, datagen.GraphSpec{Name: "pr", Vertices: 64, Edges: 200})
	var edges []datagen.Edge
	for _, e := range base {
		edges = append(edges, e, datagen.Edge{Src: e.Dst, Dst: e.Src})
	}
	const iters = 25
	sr, _, err := PageRank(dataflow.NewSession(ctx), edges, iters)
	if err != nil {
		t.Fatal(err)
	}
	fr, _, err := PageRank(dataflow.NewSession(env), edges, iters)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr) != len(fr) {
		t.Fatalf("rank sets differ in size: %d vs %d", len(sr), len(fr))
	}
	for id, r := range sr {
		if math.Abs(fr[id]-r) > 1e-6*math.Max(1, r) {
			t.Errorf("rank[%d]: spark=%v flink=%v", id, r, fr[id])
		}
	}
}

// TestConnectedComponentsAllVariantsAgree holds Connected Components on
// every engine — GraphX-style supersteps on spark, the delta iteration on
// flink, chained jobs on mapreduce — to a union-find reference: each vertex
// is labelled with the smallest id of its undirected component.
func TestConnectedComponentsAllVariantsAgree(t *testing.T) {
	edges := datagen.RMAT(19, datagen.GraphSpec{Name: "cc", Vertices: 128, Edges: 400})
	parent := map[int64]int64{}
	var find func(x int64) int64
	find = func(x int64) int64 {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, e := range edges {
		for _, v := range []int64{e.Src, e.Dst} {
			if _, ok := parent[v]; !ok {
				parent[v] = v
			}
		}
	}
	for _, e := range edges {
		if a, b := find(e.Src), find(e.Dst); a != b {
			parent[a] = b
		}
	}
	minOf := map[int64]int64{}
	for v := range parent {
		if m, ok := minOf[find(v)]; !ok || v < m {
			minOf[find(v)] = v
		}
	}

	for _, engine := range dataflow.Names() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			labels, supersteps, err := ConnectedComponents(paritySession(t, engine), edges, 50)
			if err != nil {
				t.Fatal(err)
			}
			if len(labels) != len(parent) {
				t.Fatalf("labelled %d vertices, want %d", len(labels), len(parent))
			}
			for v := range parent {
				if want := minOf[find(v)]; labels[v] != want {
					t.Errorf("label[%d] = %d, want %d (union-find reference)", v, labels[v], want)
				}
			}
			if supersteps <= 0 {
				t.Error("CC reported no supersteps")
			}
		})
	}
}

func TestPlansRegenerateTableI(t *testing.T) {
	ctx, env := pairCtx(t)
	plans, err := Plans(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 12 {
		t.Fatalf("expected 12 plans (6 workloads × 2 frameworks), got %d", len(plans))
	}
	seen := map[string]bool{}
	for _, p := range plans {
		if err := p.Validate(); err != nil {
			t.Errorf("plan %s/%s invalid: %v", p.Framework, p.Workload, err)
		}
		seen[p.Framework+"/"+p.Workload] = true
	}
	for _, key := range []string{
		"spark/WordCount", "flink/WordCount", "spark/Grep", "flink/Grep",
		"spark/TeraSort", "flink/TeraSort", "spark/KMeans", "flink/KMeans",
		"spark/PageRank", "flink/PageRank", "spark/ConnectedComponents", "flink/ConnectedComponents",
	} {
		if !seen[key] {
			t.Errorf("missing plan %s", key)
		}
	}
	// Spot-check the operator rows of Table I.
	var sparkWC, flinkWC *core.Plan
	for _, p := range plans {
		if p.Workload == "WordCount" {
			if p.Framework == "spark" {
				sparkWC = p
			} else {
				flinkWC = p
			}
		}
		// The graph rows render what runs: a delta iteration on flink,
		// cogrouped supersteps on spark.
		if p.Workload == "PageRank" || p.Workload == "ConnectedComponents" {
			ops := strings.Join(p.Operators(), ",")
			want := map[string]string{"spark": "CoGroup", "flink": "DeltaIteration"}[p.Framework]
			if !strings.Contains(ops, want) {
				t.Errorf("%s/%s operators %s lack %s", p.Framework, p.Workload, ops, want)
			}
		}
	}
	sOps := strings.Join(sparkWC.Operators(), ",")
	if !strings.Contains(sOps, "MapToPair") || !strings.Contains(sOps, "ReduceByKey") {
		t.Errorf("spark WC operators missing Table I entries: %s", sOps)
	}
	fOps := strings.Join(flinkWC.Operators(), ",")
	if !strings.Contains(fOps, "GroupCombine") || !strings.Contains(fOps, "GroupReduce") {
		t.Errorf("flink WC operators missing Table I entries: %s", fOps)
	}
	sortedOps := append([]string{}, sparkWC.Operators()...)
	sort.Strings(sortedOps)
	if len(sortedOps) < 3 {
		t.Errorf("suspiciously small spark WC plan: %v", sortedOps)
	}
}

// TestKMeansRowsRenderWhatRuns: an iteration's row comes from the builders
// its run uses — on mapreduce the staging wave that writes the points to the
// DFS once, ahead of the round job that reads them beside the state; on
// flink the step dataflow, built over the bulk iteration's partial solution.
func TestKMeansRowsRenderWhatRuns(t *testing.T) {
	want := map[string][]string{
		"mapreduce": {"InputSplit | StageInput | DistributedCache(state) | Map | Combine", "Reduce | Output | ChainedJobs(1)"},
		"flink":     {"BulkPartialSolution", "DataSource->Map(withBroadcastSet)->GroupCombine | GroupReduce->Map | BulkIteration(1)"},
	}
	for engine, frags := range want {
		s, err := dataflow.Open(engine)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := KMeansPlan(s)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		for _, frag := range frags {
			if !strings.Contains(plan.String(), frag) {
				t.Errorf("%s lacks %q", plan, frag)
			}
		}
	}
}
