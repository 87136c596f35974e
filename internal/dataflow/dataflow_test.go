package dataflow_test

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dfs"
)

func session(t *testing.T, engine string) *dataflow.Session {
	t.Helper()
	spec := cluster.Spec{Nodes: 2, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 200, NetMiBps: 200}
	rt, err := cluster.NewRuntime(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	conf := core.NewConfig()
	if engine == "flink" {
		// A pipelined plan cannot time-share task waves: keep the reduce
		// parallelism within the per-node slot budget.
		conf.SetInt(core.FlinkDefaultParallelism, 4).SetInt(core.FlinkNetworkBuffers, 8192)
	}
	s, err := dataflow.Open(engine, dataflow.WithConfig(conf), dataflow.WithRuntime(rt), dataflow.WithFS(dfs.New(spec.Nodes, 16*core.KB, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRegistryHasAllEngines(t *testing.T) {
	names := dataflow.Names()
	sorted := append([]string{}, names...)
	sort.Strings(sorted)
	if fmt.Sprint(sorted) != "[flink mapreduce spark]" {
		t.Fatalf("registry = %v, want flink/mapreduce/spark", names)
	}
	if _, err := dataflow.Open("no-such-engine"); err == nil {
		t.Error("Open should reject unknown engines")
	}
}

// TestOpenDefaults opens a session with no options at all: Open must
// construct the default config, runtime and filesystem, and the session
// must actually run a pipeline.
func TestOpenDefaults(t *testing.T) {
	s, err := dataflow.Open("spark")
	if err != nil {
		t.Fatal(err)
	}
	s.FS().WriteFile("t", []byte("a b\nc\n"))
	n, err := dataflow.Count(dataflow.TextFile(s, "t"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("Count = %d, want 2", n)
	}

	// Options can pin individual pieces while the rest defaults.
	fs := dfs.New(2, 16*core.KB, 1)
	s2, err := dataflow.Open("flink", dataflow.WithFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	if s2.FS() != fs {
		t.Error("WithFS was not honored")
	}
}

// TestPipelineAgreesOnAllBackends runs the same logical pipeline —
// source → flatMap → filter → mapToPair → reduceByKey → collect — on every
// backend and requires identical keyed results.
func TestPipelineAgreesOnAllBackends(t *testing.T) {
	got := map[string]string{}
	for _, engine := range dataflow.Names() {
		s := session(t, engine)
		s.FS().WriteFile("nums", []byte("1 2 3\n4 5 6\n7 8 9\n10 11 12\n"))

		lines := dataflow.TextFile(s, "nums")
		fields := dataflow.FlatMap(lines, strings.Fields)
		odds := dataflow.Filter(fields, func(f string) bool { return len(f) == 1 })
		pairs := dataflow.MapToPair(odds, func(f string) core.Pair[string, int64] {
			return core.KV(fmt.Sprint(len(f)), int64(1))
		})
		counts, err := dataflow.Collect(dataflow.ReduceByKey(pairs, func(a, b int64) int64 { return a + b }))
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		sort.Slice(counts, func(i, j int) bool { return counts[i].Key < counts[j].Key })
		got[engine] = fmt.Sprint(counts)

		n, err := dataflow.Count(odds)
		if err != nil {
			t.Fatalf("%s count: %v", engine, err)
		}
		if n != 9 {
			t.Errorf("%s counted %d single-digit fields, want 9", engine, n)
		}
	}
	want := got["spark"]
	if want == "" || want != got["flink"] || want != got["mapreduce"] {
		t.Errorf("backends disagree: %v", got)
	}
}

// TestNarrowChainsFuse checks that a Map→Filter→Map chain lowers as one
// fused operator on every backend (and computes correctly), that a single
// operator lowers as a chain of one under its own label, and that a cache
// hint landing on an intermediate AFTER construction voids the chain so the
// engine still sees the node to persist.
func TestNarrowChainsFuse(t *testing.T) {
	for _, engine := range dataflow.Names() {
		s := session(t, engine)
		s.FS().WriteFile("fin", []byte("a\nbb\nccc\n"))
		lines := dataflow.TextFile(s, "fin")
		upper := dataflow.Map(lines, strings.ToUpper)
		long := dataflow.Filter(upper, func(x string) bool { return len(x) > 1 })
		bang := dataflow.Map(long, func(x string) string { return x + "!" })
		got, err := dataflow.Collect(bang)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		sort.Strings(got)
		if fmt.Sprint(got) != "[BB! CCC!]" {
			t.Errorf("%s: fused chain = %v, want [BB! CCC!]", engine, got)
		}
		if engine == "spark" {
			for d, want := range map[*dataflow.Dataset[string]]string{bang: "Fused[Map→Filter→Map]", upper: "Map"} {
				rdd, err := dataflow.SparkRDDOf(d)
				if err != nil {
					t.Fatal(err)
				}
				if rdd.Name() != want {
					t.Errorf("spark lowered chain as %q, want %q", rdd.Name(), want)
				}
			}
		}

		// Late cache hint: Cached() on an intermediate after the tail exists,
		// before the first action.
		s = session(t, engine)
		s.FS().WriteFile("fin", []byte(strings.Repeat("x\ny\n", 50)))
		mid := dataflow.Map(dataflow.TextFile(s, "fin"), strings.ToUpper)
		tail := dataflow.Map(dataflow.Filter(mid, func(x string) bool { return x == "X" }),
			func(x string) string { return x + "!" })
		mid.Cached()
		for i := 0; i < 2; i++ {
			got, err := dataflow.Collect(tail)
			if err != nil {
				t.Fatalf("%s: %v", engine, err)
			}
			if strings.Join(got, "") != strings.Repeat("X!", 50) {
				t.Errorf("%s, action %d over a late-cached intermediate: %v", engine, i+1, got)
			}
		}
		if engine == "spark" && s.Metrics().CacheHits.Load() == 0 {
			t.Error("late Cached() on a chain intermediate was fused away")
		}
	}
}

// TestKeyByAndCollectAsMap exercises a keyed view — each record keyed with
// MapToPair — and the driver map action on every backend.
func TestKeyByAndCollectAsMap(t *testing.T) {
	for _, engine := range dataflow.Names() {
		s := session(t, engine)
		words := dataflow.FromSlice(s, []string{"aa", "b", "cc", "d", "ee"}, 2)
		byLen := dataflow.MapToPair(words, func(w string) core.Pair[int, string] { return core.KV(len(w), w) })
		counts := dataflow.ReduceByKey(
			dataflow.MapToPair(byLen, func(p core.Pair[int, string]) core.Pair[int, int64] {
				return core.KV(p.Key, int64(1))
			}),
			func(a, b int64) int64 { return a + b })
		m, err := dataflow.CollectAsMap(counts)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if m[1] != 2 || m[2] != 3 {
			t.Errorf("%s: len histogram = %v, want 1:2 2:3", engine, m)
		}
	}
}

// TestCacheHintHonoredOnlyBySpark pins the Section VI-B asymmetry: the
// same Cached() dataset consumed twice hits Spark's block manager and is
// recomputed everywhere else.
func TestCacheHintHonoredOnlyBySpark(t *testing.T) {
	for _, engine := range dataflow.Names() {
		s := session(t, engine)
		s.FS().WriteFile("data", []byte(strings.Repeat("x\n", 500)))
		cached := dataflow.Filter(dataflow.TextFile(s, "data"),
			func(l string) bool { return l != "" }).Cached()
		for i := 0; i < 3; i++ {
			if _, err := dataflow.Count(cached); err != nil {
				t.Fatalf("%s: %v", engine, err)
			}
		}
		hits := s.Metrics().CacheHits.Load()
		if engine == "spark" && hits == 0 {
			t.Error("spark ignored the cache hint")
		}
		if engine != "spark" && hits != 0 {
			t.Errorf("%s unexpectedly cached (%d hits)", engine, hits)
		}
	}
}

// TestPlanLoweringPerEngine checks that one logical plan lowers into each
// engine's idiom and always validates.
func TestPlanLoweringPerEngine(t *testing.T) {
	frameworks := map[string]string{"spark": "spark", "flink": "flink", "mapreduce": "mapreduce"}
	for _, engine := range dataflow.Names() {
		s := session(t, engine)
		s.FS().WriteFile("in", []byte("a b\n")) // spark and flink open it when lowering
		lines := dataflow.TextFile(s, "in")
		pairs := dataflow.MapToPair(dataflow.FlatMap(lines, strings.Fields),
			func(w string) core.Pair[string, int64] { return core.KV(w, int64(1)) })
		counts := dataflow.ReduceByKey(pairs, func(a, b int64) int64 { return a + b })
		plan, err := dataflow.PlanOf("WC", dataflow.SaveSink(counts))
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("%s plan invalid: %v", engine, err)
		}
		if plan.Framework != frameworks[engine] {
			t.Errorf("plan framework = %q, want %q", plan.Framework, frameworks[engine])
		}
		ops := strings.Join(plan.Operators(), " ")
		switch engine {
		case "spark":
			if !strings.Contains(ops, "MapToPair") || !strings.Contains(ops, "ReduceByKey") {
				t.Errorf("spark plan missing Table I operators: %s", ops)
			}
		case "flink":
			if !strings.Contains(ops, "GroupCombine") || !strings.Contains(ops, "GroupReduce") {
				t.Errorf("flink plan missing chained combiner: %s", ops)
			}
		case "mapreduce":
			for _, op := range []string{"InputSplit", "SpillSort", "Materialize", "MergeSort"} {
				if !strings.Contains(ops, op) {
					t.Errorf("mapreduce plan missing %s: %s", op, ops)
				}
			}
		}
	}
}

// TestIterationConvergesIdentically runs a broadcast iteration (a 1-D
// 2-means) on every backend and requires the same final state.
func TestIterationConvergesIdentically(t *testing.T) {
	var data []float64
	for i := 0; i < 200; i++ {
		data = append(data, float64(i%7))      // cluster near 3
		data = append(data, 100+float64(i%11)) // cluster near 105
	}
	got := map[string]string{}
	for _, engine := range dataflow.Names() {
		s := session(t, engine)
		ds := dataflow.FromSlice(s, data, 0).Cached()
		init := []core.Pair[int, float64]{core.KV(0, 0.0), core.KV(1, 50.0)}
		it := dataflow.NewIteration(ds, init, 5,
			func(x float64, centers []core.Pair[int, float64]) core.Pair[int, core.Pair[float64, int64]] {
				best, bestD := 0, -1.0
				for _, c := range centers {
					d := (x - c.Value) * (x - c.Value)
					if bestD < 0 || d < bestD || (d == bestD && c.Key < best) {
						best, bestD = c.Key, d
					}
				}
				return core.KV(best, core.KV(x, int64(1)))
			},
			func(a, b core.Pair[float64, int64]) core.Pair[float64, int64] {
				return core.KV(a.Key+b.Key, a.Value+b.Value)
			},
			func(_ int, sum core.Pair[float64, int64]) float64 {
				return sum.Key / float64(sum.Value)
			})
		state, err := it.Run()
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		var sb strings.Builder
		for _, p := range state {
			fmt.Fprintf(&sb, "%d:%.6f ", p.Key, p.Value)
		}
		got[engine] = sb.String()

		plan, err := dataflow.PlanOf("It", it.Sink())
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(); err != nil {
			t.Errorf("%s iteration plan invalid: %v", engine, err)
		}
		if engine == "flink" && !strings.Contains(plan.String(), "BulkIteration(5)") {
			t.Errorf("flink iteration plan missing BulkIteration: %s", plan)
		}
		if engine == "mapreduce" && !strings.Contains(plan.String(), "ChainedJobs(5)") {
			t.Errorf("mapreduce iteration plan missing ChainedJobs: %s", plan)
		}
	}
	if got["spark"] != got["flink"] || got["spark"] != got["mapreduce"] {
		t.Errorf("iteration states diverge: %v", got)
	}
}

// TestSortByKeyTotalOrder checks the sort lowering end to end on every
// backend via SaveBytes.
func TestSortByKeyTotalOrder(t *testing.T) {
	keys := []string{"delta", "alpha", "echo", "bravo", "charlie", "foxtrot"}
	part := core.NewRangePartitioner(2, []string{"alpha", "charlie", "echo"},
		func(a, b string) bool { return a < b })
	for _, engine := range dataflow.Names() {
		s := session(t, engine)
		pairs := dataflow.MapToPair(dataflow.FromSlice(s, keys, 2),
			func(k string) core.Pair[string, string] { return core.KV(k, "|") })
		sorted := dataflow.SortByKey(pairs, part)
		if err := dataflow.SaveBytes(sorted, "out", func(dst []byte, p core.Pair[string, string]) []byte {
			return append(append(dst, p.Key...), p.Value...)
		}); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		f, err := s.FS().Open("out")
		if err != nil {
			t.Fatal(err)
		}
		got := strings.Split(strings.TrimSuffix(string(f.Contents()), "|"), "|")
		if !sort.StringsAreSorted(got) {
			t.Errorf("%s: output not globally sorted: %v", engine, got)
		}
		if len(got) != len(keys) {
			t.Errorf("%s: lost records: %v", engine, got)
		}
	}
}

// TestNarrowChainRunsInsideTasks pins where user functions run: on every
// backend the first call of a narrow operator's function happens after a
// task has been launched — on mapreduce too, where the chain is the map
// phase of the consuming job and not a driver-side pass before its wave.
// A chain of one and a chain of two go through the same lowering.
func TestNarrowChainRunsInsideTasks(t *testing.T) {
	for _, engine := range dataflow.Names() {
		for _, fused := range []bool{false, true} {
			s := session(t, engine)
			s.FS().WriteFile("t", []byte(strings.Repeat("a b c\n", 10000)))
			var launchedAtFirstCall atomic.Int64
			words := dataflow.FlatMap(dataflow.TextFile(s, "t"), func(l string) []string {
				launchedAtFirstCall.CompareAndSwap(0, s.Metrics().TasksLaunched.Load())
				return strings.Fields(l)
			})
			if fused {
				words = dataflow.Filter(words, func(w string) bool { return w != "b" })
			}
			if got := s.Metrics().RecordsRead.Load(); got != 0 {
				t.Errorf("%s: RecordsRead = %d before any action", engine, got)
			}
			n, err := dataflow.Count(words)
			if err != nil {
				t.Fatalf("%s: %v", engine, err)
			}
			if want := map[bool]int64{false: 30000, true: 20000}[fused]; n != want {
				t.Errorf("%s fused=%v: Count = %d, want %d", engine, fused, n, want)
			}
			if launchedAtFirstCall.Load() == 0 {
				t.Errorf("%s fused=%v: FlatMap ran before any task was launched", engine, fused)
			}
		}
	}
}

// TestTextFileReadsInMapTasks pins where mapreduce reads a split: building
// TextFile → Map touches no block (no record counted, a handful of
// allocations however many lines and blocks the file has); map task m reads
// split m after it has been launched, and counts every line it read.
func TestTextFileReadsInMapTasks(t *testing.T) {
	s := session(t, "mapreduce")
	text := []byte(strings.Repeat("a line of some forty bytes, give or take\n", 1<<20/41))
	lines := int64(len(text) / 41)
	s.FS().WriteFile("big", text)
	var launchedAtFirstMap atomic.Int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lens := dataflow.Map(dataflow.TextFile(s, "big"), func(l string) int {
		launchedAtFirstMap.CompareAndSwap(0, s.Metrics().TasksLaunched.Load())
		return len(l)
	})
	runtime.ReadMemStats(&after)
	if n, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n > 32 || b > 16<<10 {
		t.Errorf("building TextFile→Map allocated %d times, %d bytes; want O(1)", n, b)
	}
	if got := s.Metrics().RecordsRead.Load(); got != 0 {
		t.Errorf("RecordsRead = %d before the job, want 0", got)
	}
	if n, err := dataflow.Count(lens); err != nil || n != lines {
		t.Fatalf("Count = %d, %v; want %d", n, err, lines)
	}
	if got := s.Metrics().RecordsRead.Load(); got != lines {
		t.Errorf("RecordsRead = %d after the job, want %d", got, lines)
	}
	if launchedAtFirstMap.Load() == 0 {
		t.Error("Map ran before any task was launched")
	}
}
