package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/engine/mapreduce"
	"repro/internal/planner"
	"repro/internal/workloads"
)

// ext10 is the planner-regret family: the cost-model-driven static planner
// (internal/planner) judged against measured oracles on the real engines.
// For each (workload × size) cell an oracle sweep measures every candidate
// configuration the planner considers — engine × shuffle strategy ×
// parallelism — and the planner's choice is scored as
// measured(chosen)/measured(best). A cost model is useful when that ratio
// stays near 1 while the worst fixed configuration sits multiples away.
// The unique-key WordCount waves (ext10FixedWaves over ext10UniqueText),
// input that defeats the map-side combiner, are a calibration probe: make
// calibrate prints their WC-unique rows.

func init() {
	register("ext10", "Planner regret — static configuration choice vs a measured oracle", runExt10)
}

const (
	ext10Trials      = 5
	ext10SmallBytes  = 192 * 1024
	ext10LargeBytes  = 768 * 1024
	ext10SmallTera   = 4000
	ext10LargeTera   = 16000
	ext10Waves       = 4
	ext10WaveBytes   = 192 * 1024
	ext10ClusterNode = 2
	ext10ClusterCore = 8
)

// ext10Parallelisms is the shared candidate axis of the planner and the
// oracle sweep; compression is pinned to "none" (the lz codec never pays at
// laptop scale — measured in ext6 — so sweeping it would only triple the
// oracle's cost without moving the regret).
var ext10Parallelisms = []int{2, 8}

// ext10Cand is one cell of the oracle sweep.
type ext10Cand struct {
	engine string
	strat  string
	par    int
}

func (c ext10Cand) String() string { return fmt.Sprintf("%s/%s/p=%d", c.engine, c.strat, c.par) }

func ext10Candidates() []ext10Cand {
	var out []ext10Cand
	for _, engine := range []string{"spark", "flink", "mapreduce"} {
		for _, strat := range []string{"hash", "sort"} {
			for _, par := range ext10Parallelisms {
				out = append(out, ext10Cand{engine: engine, strat: strat, par: par})
			}
		}
	}
	return out
}

// ext10Cell is one (workload × size) point of the static sweep.
type ext10Cell struct {
	label string
	wl    string
	text  []byte
	tera  []byte
	spec  planner.PlanSpec
}

// ext10Cells is the size sweep: each workload at two sizes a factor of four
// apart, so a configuration's cost splits into a fixed part and a per-MiB
// slope — the split sim.Estimate's constants are fitted to (make calibrate).
func ext10Cells() []ext10Cell {
	return []ext10Cell{
		{label: "WordCount 192KiB", wl: "WordCount", text: datagen.Text(33, ext10SmallBytes, 10),
			spec: planner.PlanSpec{Workload: "WordCount", Shape: planner.Aggregate,
				Input: planner.InputStats{Bytes: ext10SmallBytes}}},
		{label: "WordCount 768KiB", wl: "WordCount", text: datagen.Text(33, ext10LargeBytes, 10),
			spec: planner.PlanSpec{Workload: "WordCount", Shape: planner.Aggregate,
				Input: planner.InputStats{Bytes: ext10LargeBytes}}},
		{label: "TeraSort 4000r", wl: "TeraSort", tera: datagen.TeraGen(7, ext10SmallTera),
			spec: planner.PlanSpec{Workload: "TeraSort", Shape: planner.Sort,
				Input: planner.InputStats{Bytes: 100 * ext10SmallTera, Records: ext10SmallTera}}},
		{label: "TeraSort 16000r", wl: "TeraSort", tera: datagen.TeraGen(7, ext10LargeTera),
			spec: planner.PlanSpec{Workload: "TeraSort", Shape: planner.Sort,
				Input: planner.InputStats{Bytes: 100 * ext10LargeTera, Records: ext10LargeTera}}},
	}
}

// run measures one configuration on the cell once.
func (c ext10Cell) run(cand ext10Cand) (float64, error) {
	sec, err := ext10Run(cand, c.wl, c.text, c.tera)
	if err != nil {
		return 0, fmt.Errorf("ext10 %s %s: %w", c.label, cand, err)
	}
	return sec, nil
}

// ext10Sweep measures run on every candidate configuration, best of trials
// runs each.
func ext10Sweep(trials int, run func(ext10Cand) (float64, error)) (map[ext10Cand]float64, error) {
	measured := map[ext10Cand]float64{}
	for _, cand := range ext10Candidates() {
		measured[cand] = math.Inf(1)
		for i := 0; i < trials; i++ {
			sec, err := run(cand)
			if err != nil {
				return nil, err
			}
			measured[cand] = min(measured[cand], sec)
		}
	}
	return measured, nil
}

// ext10Extremes picks the fastest and slowest configuration of a sweep.
func ext10Extremes(measured map[ext10Cand]float64) (best, worst ext10Cand) {
	bestSec, worstSec := math.Inf(1), math.Inf(-1)
	for _, cand := range ext10Candidates() {
		if sec := measured[cand]; sec < bestSec {
			bestSec, best = sec, cand
		}
		if sec := measured[cand]; sec > worstSec {
			worstSec, worst = sec, cand
		}
	}
	return best, worst
}

func runExt10() (*Report, error) {
	rep := &Report{
		ID:      "ext10",
		Planner: true,
		Title:   "Planner regret: static configuration choice vs a measured oracle",
		Notes: []string{
			fmt.Sprintf("oracle = min over %d measured configs (3 engines × hash/sort × p∈%v, compress=none), best-of-%d runs; regret = measured(planner choice)/oracle, both re-measured in alternation when they differ",
				len(ext10Candidates()), ext10Parallelisms, ext10Trials),
		},
	}
	rep.Table = append(rep.Table, []string{
		"cell", "planner choice", "est (s)", "measured (s)", "oracle", "oracle (s)", "regret", "worst fixed", "worst (s)"})

	for _, c := range ext10Cells() {
		measured, err := ext10Sweep(ext10Trials, c.run)
		if err != nil {
			return nil, err
		}
		best, worst := ext10Extremes(measured)
		bestSec, worstSec := measured[best], measured[worst]
		d, err := ext10Plan(c.spec)
		if err != nil {
			return nil, fmt.Errorf("ext10 %s: %w", c.label, err)
		}
		chosen := ext10Cand{engine: d.Chosen.Engine, strat: d.Chosen.Strategy, par: d.Chosen.Parallelism}
		chosenSec, ok := measured[chosen]
		if !ok {
			return nil, fmt.Errorf("ext10 %s: planner chose %s outside the oracle sweep", c.label, chosen)
		}
		if chosen != best {
			// The oracle is the minimum of twelve noisy cells, which
			// flatters it: run the two again, alternating, and score the
			// regret on that pair alone.
			chosenSec, bestSec = math.Inf(1), math.Inf(1)
			for i := 0; i < ext10Trials; i++ {
				a, err := c.run(chosen)
				if err != nil {
					return nil, err
				}
				b, err := c.run(best)
				if err != nil {
					return nil, err
				}
				chosenSec, bestSec = min(chosenSec, a), min(bestSec, b)
			}
		}
		rep.Table = append(rep.Table, []string{
			c.label, chosen.String(), fmt.Sprintf("%.3f", d.Est.Seconds),
			fmt.Sprintf("%.3f", chosenSec), best.String(), fmt.Sprintf("%.3f", bestSec),
			fmt.Sprintf("%.2fx", chosenSec/bestSec), worst.String(), fmt.Sprintf("%.3f", worstSec),
		})
		rep.Rows = append(rep.Rows, Row{Label: c.label, PaperNote: chosen.String(),
			PlannerSec: chosenSec, OracleSec: bestSec, WorstSec: worstSec,
			Regret: chosenSec / bestSec})
	}
	return rep, nil
}

// ext10Spec is the testbed every ext10 run schedules onto.
var ext10Spec = cluster.Spec{Nodes: ext10ClusterNode, CoresPerNode: ext10ClusterCore,
	MemPerNode: core.GB, DiskSeqMiBps: 200, NetMiBps: 200}

// ext10BaseConf is the shared substrate configuration — memory and buffer
// sizing only, no planner-controlled keys, so the planner (and explicit
// Set calls in fixed-config runs) decide strategy and parallelism.
func ext10BaseConf() *core.Config {
	return core.NewConfig().
		SetInt(core.FlinkNetworkBuffers, 8192).
		SetBytes(core.SparkExecutorMemory, 512*core.MB).
		SetBytes(core.FlinkTaskManagerMemory, 256*core.MB)
}

// ext10Plan runs the free-engine static planner for one cell over the same
// candidate space the oracle sweep measures.
func ext10Plan(spec planner.PlanSpec) (*planner.Decision, error) {
	pl := &planner.Planner{
		Provider:     &planner.SimCost{Base: ext10BaseConf()},
		Spec:         ext10Spec,
		Parallelisms: ext10Parallelisms,
		Compressions: []string{"none"},
	}
	return pl.Plan(spec)
}

// ext10Session opens a fresh session on one fixed configuration.
func ext10Session(cand ext10Cand) (*dataflow.Session, error) {
	rt, err := cluster.NewRuntime(ext10Spec, ext10ClusterCore)
	if err != nil {
		return nil, err
	}
	conf := ext10BaseConf().
		Set(core.ShuffleStrategy, cand.strat).
		SetInt(core.SparkDefaultParallelism, cand.par).
		SetInt(core.FlinkDefaultParallelism, cand.par).
		SetInt(mapreduce.MRReduceTasks, cand.par)
	return dataflow.Open(cand.engine, dataflow.WithConfig(conf), dataflow.WithRuntime(rt),
		dataflow.WithFS(dfs.New(ext10Spec.Nodes, 16*core.KB, 1)))
}

// ext10Run measures one workload once on one fixed configuration over a
// fresh session.
func ext10Run(cand ext10Cand, wl string, text, tera []byte) (float64, error) {
	s, err := ext10Session(cand)
	if err != nil {
		return 0, err
	}
	switch wl {
	case "WordCount":
		s.FS().WriteFile("ext10-wc", text)
		start := time.Now()
		if err := workloads.WordCount(s, "ext10-wc", "ext10-wc-out"); err != nil {
			return 0, err
		}
		return time.Since(start).Seconds(), nil
	case "TeraSort":
		s.FS().WriteFile("ext10-tera", tera)
		part := workloads.TeraPartitioner(tera, cand.par)
		start := time.Now()
		if err := workloads.TeraSort(s, "ext10-tera", "ext10-tera-out", part); err != nil {
			return 0, err
		}
		if err := workloads.VerifyTeraSorted(s.FS(), "ext10-tera-out", len(tera)/100); err != nil {
			return 0, err
		}
		return time.Since(start).Seconds(), nil
	}
	return 0, fmt.Errorf("unknown workload %q", wl)
}

// ext10FixedWaves measures ext10Waves chained WordCounts of wave, one
// session per run, on a fixed configuration.
func ext10FixedWaves(wave []byte) func(ext10Cand) (float64, error) {
	return func(cand ext10Cand) (float64, error) {
		s, err := ext10Session(cand)
		if err != nil {
			return 0, err
		}
		for w := 0; w < ext10Waves; w++ {
			s.FS().WriteFile(fmt.Sprintf("ext10-u%d", w), wave)
		}
		start := time.Now()
		for w := 0; w < ext10Waves; w++ {
			if err := workloads.WordCount(s, fmt.Sprintf("ext10-u%d", w), fmt.Sprintf("ext10-u%d-out", w)); err != nil {
				return 0, fmt.Errorf("ext10 waves %s: %w", cand, err)
			}
		}
		return time.Since(start).Seconds(), nil
	}
}

// ext10UniqueText builds text whose words are (almost) all distinct — the
// cardinality profile that defeats a map-side combiner and breaks the
// planner's default selectivity assumption.
func ext10UniqueText(totalBytes int) []byte {
	var b strings.Builder
	b.Grow(totalBytes + 64)
	i := 0
	for b.Len() < totalBytes {
		fmt.Fprintf(&b, "w%07d", i)
		i++
		if i%8 == 0 {
			b.WriteByte('\n')
		} else {
			b.WriteByte(' ')
		}
	}
	return []byte(b.String())
}
