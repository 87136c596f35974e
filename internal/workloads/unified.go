package workloads

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
)

// This file holds the single, engine-agnostic definition of every batch
// workload: one logical pipeline per benchmark, executable on spark,
// flink and mapreduce through dataflow.Session, with per-engine plans for
// Table I rendered from the same definitions (see *Plan below). The graph
// workloads live in graphs.go over the dataflow/graph subsystem.
//
// A *Plan builder writes a tiny placeholder input to the session's FS
// first: spark and flink open their file sources when a pipeline is
// lowered, and rendering lowers it.

// WordCount is the paper's aggregation benchmark, written once:
// source → flatMap → mapToPair → reduceByKey → save.
func WordCount(s *dataflow.Session, input, output string) error {
	return dataflow.SaveAsText(wordCountPipeline(s, input), output)
}

func wordCountPipeline(s *dataflow.Session, input string) *dataflow.Dataset[core.Pair[string, int64]] {
	lines := dataflow.TextFile(s, input)
	words := dataflow.FlatMap(lines, func(l string) []string { return strings.Fields(l) })
	pairs := dataflow.MapToPair(words, func(w string) core.Pair[string, int64] {
		return core.KV(w, int64(1))
	})
	return dataflow.ReduceByKey(pairs, func(a, b int64) int64 { return a + b })
}

// WordCountPlan renders the plan Word Count runs on s's engine without
// executing it — its Table I row.
func WordCountPlan(s *dataflow.Session) (*core.Plan, error) {
	return dataflow.PlanOf("WordCount", dataflow.SaveSink(wordCountPipeline(s, planText(s))))
}

// planText writes the text placeholder the plan builders read.
func planText(s *dataflow.Session) string {
	s.FS().WriteFile("plan-text", []byte("a b\n"))
	return "plan-text"
}

// Grep is the paper's filter benchmark: source → filter → count.
func Grep(s *dataflow.Session, input, pattern string) (int64, error) {
	return dataflow.Count(grepPipeline(s, input, pattern))
}

func grepPipeline(s *dataflow.Session, input, pattern string) *dataflow.Dataset[string] {
	lines := dataflow.TextFile(s, input)
	return dataflow.Filter(lines, func(l string) bool { return strings.Contains(l, pattern) })
}

// GrepPlan is Grep's Table I row on s's engine.
func GrepPlan(s *dataflow.Session) (*core.Plan, error) {
	return dataflow.PlanOf("Grep", dataflow.CountSink(grepPipeline(s, planText(s), "a")))
}

// GrepMultiFilter is the Section VI-B discussion case, written once:
// several filter passes over the same dataset, with the input marked
// Cached(). Spark's persistence control scans the input once and serves
// every pattern from the cache; Flink and MapReduce have no persistence
// control and re-read the input per pattern — the asymmetry falls out of
// the lowering instead of being hand-coded twice.
func GrepMultiFilter(s *dataflow.Session, input string, patterns []string) ([]int64, error) {
	cached := dataflow.Filter(dataflow.TextFile(s, input),
		func(l string) bool { return len(l) > 0 }).Cached()
	out := make([]int64, len(patterns))
	for i, p := range patterns {
		p := p
		n, err := dataflow.Count(dataflow.Filter(cached, func(l string) bool {
			return strings.Contains(l, p)
		}))
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// GrepMultiFilterPlan renders the multi-pass pipeline with three sample
// patterns: on Spark the cached dataset is one shared node with fan-out;
// on Flink and MapReduce each pattern repeats the whole source chain.
func GrepMultiFilterPlan(s *dataflow.Session) (*core.Plan, error) {
	cached := dataflow.Filter(dataflow.TextFile(s, planText(s)),
		func(l string) bool { return len(l) > 0 }).Cached()
	var sinks []dataflow.Sink
	for _, p := range []string{"a", "b", "c"} {
		p := p
		sinks = append(sinks, dataflow.CountSink(dataflow.Filter(cached, func(l string) bool {
			return strings.Contains(l, p)
		})))
	}
	return dataflow.PlanOf("GrepMultiFilter", sinks...)
}

// TeraSort is the paper's sort benchmark, written once: binary source →
// mapToPair(key, rest) → sortByKey over the shared range partitioner →
// binary save. The same Hadoop-style TotalOrderPartitioner is used on
// every engine, as the paper requires for fairness.
func TeraSort(s *dataflow.Session, input, output string, part *core.RangePartitioner[string]) error {
	return dataflow.SaveBytes(teraSortPipeline(s, input, part), output,
		func(dst []byte, p core.Pair[string, string]) []byte {
			return append(append(dst, p.Key...), p.Value...)
		})
}

func teraSortPipeline(s *dataflow.Session, input string, part *core.RangePartitioner[string]) *dataflow.Dataset[core.Pair[string, string]] {
	recs := dataflow.BinaryFile(s, input, datagen.TeraRecordSize)
	pairs := dataflow.MapToPair(recs, func(r []byte) core.Pair[string, string] {
		return core.KV(datagen.TeraKey(r), string(r[datagen.TeraKeySize:]))
	})
	return dataflow.SortByKey(pairs, part)
}

// TeraSortPlan is Tera Sort's Table I row on s's engine.
func TeraSortPlan(s *dataflow.Session) (*core.Plan, error) {
	data := datagen.TeraGen(1, 10)
	s.FS().WriteFile("plan-tera", data)
	return dataflow.PlanOf("TeraSort", dataflow.SaveSink(teraSortPipeline(s, "plan-tera", TeraPartitioner(data, 2))))
}

// KMeans is the paper's iterative benchmark, written once as a broadcast
// iteration: assign every point to its nearest center, reduce per-center
// sums, recompute the centers. The engines' iteration models diverge in
// the lowering — Spark's cached RDD + per-round jobs, Flink's native bulk
// iteration, MapReduce's DFS-chained jobs — which is exactly the contrast
// of Figures 10-11.
func KMeans(s *dataflow.Session, points []datagen.Point, k, iters int) ([]datagen.Point, error) {
	if k <= 0 {
		return nil, fmt.Errorf("workloads: kmeans needs k > 0")
	}
	it := kmeansIteration(s, points, k, iters)
	state, err := it.Run()
	if err != nil {
		return nil, err
	}
	centers := make([]datagen.Point, k)
	for _, p := range state {
		if p.Key >= 0 && p.Key < k {
			centers[p.Key] = p.Value
		}
	}
	return centers, nil
}

func kmeansIteration(s *dataflow.Session, points []datagen.Point, k, iters int) *dataflow.Iteration[datagen.Point, int, KSum, datagen.Point] {
	data := dataflow.FromSlice(s, points, 0).Cached()
	init := datagen.InitialCenters(points, k)
	state := make([]core.Pair[int, datagen.Point], k)
	for i, c := range init {
		state[i] = core.KV(i, c)
	}
	return dataflow.NewIteration(data, state, iters,
		func(p datagen.Point, centers []core.Pair[int, datagen.Point]) core.Pair[int, KSum] {
			return core.KV(nearestPair(p, centers), KSum{X: p.X, Y: p.Y, N: 1})
		},
		addKSum,
		func(_ int, sum KSum) datagen.Point {
			if sum.N == 0 {
				return datagen.Point{}
			}
			return datagen.Point{X: sum.X / float64(sum.N), Y: sum.Y / float64(sum.N)}
		})
}

// nearestPair picks the closest center from broadcast state pairs, with a
// deterministic lowest-key tie-break so every engine assigns identically
// regardless of the order the broadcast arrives in.
func nearestPair(p datagen.Point, centers []core.Pair[int, datagen.Point]) int {
	best, bestD := 0, -1.0
	for _, c := range centers {
		d := dist2(p, c.Value)
		if bestD < 0 || d < bestD || (d == bestD && c.Key < best) {
			best, bestD = c.Key, d
		}
	}
	return best
}

// KMeansPlan is K-Means' Table I row on s's engine (one symbolic
// iteration, like the paper's Figure 10 plan).
func KMeansPlan(s *dataflow.Session) (*core.Plan, error) {
	it := kmeansIteration(s, []datagen.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}, 1, 1)
	return dataflow.PlanOf("KMeans", it.Sink())
}

// UnifiedPlans renders all five single-definition workloads on the
// session's engine — the engine's column of Table I from the unified API.
func UnifiedPlans(s *dataflow.Session) ([]*core.Plan, error) {
	var plans []*core.Plan
	for _, build := range []func(*dataflow.Session) (*core.Plan, error){
		WordCountPlan, GrepPlan, GrepMultiFilterPlan, TeraSortPlan, KMeansPlan,
	} {
		p, err := build(s)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	return plans, nil
}
