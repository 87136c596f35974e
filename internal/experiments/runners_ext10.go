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

// ext10 is the adaptive-execution family: the cost-model-driven planner
// (internal/planner) judged against measured oracles on the real engines.
//
// Static regret: for each (workload × size) cell an oracle sweep measures
// every candidate configuration the planner considers — engine × shuffle
// strategy × parallelism — and the planner's choice is scored as
// measured(chosen)/measured(best). A cost model is useful when that ratio
// stays near 1 while the worst fixed configuration sits multiples away.
//
// Adaptive: a chained WordCount over UNIQUE keys — input that silently
// defeats the map-side combiner the static plan counts on. The planner is
// fed only input bytes; the first wave's stage metrics reveal the
// cardinality misestimate (observed shuffle volume ≈ 2.8× the estimate) and
// the monitor re-plans the remaining waves with the distinct fraction
// corrected to 1, which the decision trail records. The cell compares
// planner-adaptive against every fixed configuration over the same waves.
// While mapreduce's hash path won at the default cardinality the static
// choice was hash/p=8 and the re-plan moved to sort/p=2; since its sort path
// measures under its hash path everywhere (sim/estimate.go, estAggSortMR)
// the static choice is sort/p=2 already and the re-plan confirms it: the
// sweep finds no engine whose best configuration still turns on cardinality,
// so the cell shows the monitor and the corrected estimate, not a switch.

func init() {
	register("ext10", "Adaptive execution — planner regret and runtime re-planning (AQE)", runExt10)
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
	sec, err := ext10Run(cand.engine, c.wl, cand.strat, cand.par, c.text, c.tera)
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
		Title:   "Adaptive execution: planner-static regret and runtime re-planning",
		Notes: []string{
			fmt.Sprintf("static cells: oracle = min over %d measured configs (3 engines × hash/sort × p∈%v, compress=none), best-of-%d runs; regret = measured(planner choice)/oracle, both re-measured in alternation when they differ",
				len(ext10Candidates()), ext10Parallelisms, ext10Trials),
			"adaptive cell: WordCount over unique keys (combiner defeated), " + fmt.Sprint(ext10Waves) + " chained waves; the planner starts from the cardinality-blind static choice and re-plans at the first stage boundary",
		},
	}
	rep.Table = append(rep.Table, []string{
		"cell", "planner choice", "est (s)", "measured (s)", "oracle", "oracle (s)", "regret", "worst fixed", "worst (s)"})

	// --- Static regret cells --------------------------------------------
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
			Regret: chosenSec / bestSec, Replans: math.NaN()})
	}

	// --- Adaptive cell ---------------------------------------------------
	ad, err := ext10AdaptiveCell()
	if err != nil {
		return nil, err
	}
	bestFixed, worstFixed := ext10Extremes(ad.fixed)
	bestFixedSec, worstFixedSec := ad.fixed[bestFixed], ad.fixed[worstFixed]
	label := fmt.Sprintf("WC-unique %d×192KiB (adaptive)", ext10Waves)
	rep.Table = append(rep.Table, []string{
		label,
		fmt.Sprintf("%s (replans=%d)", ad.final.Chosen, ad.replans),
		fmt.Sprintf("%.3f", ad.final.Est.Seconds),
		fmt.Sprintf("%.3f", ad.sec), bestFixed.String(), fmt.Sprintf("%.3f", bestFixedSec),
		fmt.Sprintf("%.2fx", ad.sec/bestFixedSec), worstFixed.String(), fmt.Sprintf("%.3f", worstFixedSec),
	})
	rep.Rows = append(rep.Rows, Row{Label: label, PaperNote: ad.final.Chosen.String(),
		PlannerSec: ad.sec, OracleSec: bestFixedSec, WorstSec: worstFixedSec,
		Regret: ad.sec / bestFixedSec, Replans: float64(ad.replans)})
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("adaptive vs its static start: %.2fx the time of %s held for all waves (%.3fs, the two re-measured in alternation); vs worst fixed %s: %.2fx; re-plan events: %d",
			ad.sec/ad.held, ad.start, ad.held, worstFixed, ad.sec/worstFixedSec, ad.replans))
	for _, line := range strings.Split(strings.TrimRight(ad.trace, "\n"), "\n") {
		rep.Notes = append(rep.Notes, "trace: "+line)
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

// ext10Run measures one workload once on one fixed configuration over a
// fresh session.
func ext10Run(engine, wl, strat string, par int, text, tera []byte) (float64, error) {
	rt, err := cluster.NewRuntime(ext10Spec, ext10ClusterCore)
	if err != nil {
		return 0, err
	}
	conf := ext10BaseConf().
		Set(core.ShuffleStrategy, strat).
		SetInt(core.SparkDefaultParallelism, par).
		SetInt(core.FlinkDefaultParallelism, par).
		SetInt(mapreduce.MRReduceTasks, par)
	s, err := dataflow.Open(engine, dataflow.WithConfig(conf), dataflow.WithRuntime(rt),
		dataflow.WithFS(dfs.New(ext10Spec.Nodes, 16*core.KB, 1)))
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
		part := workloads.TeraPartitioner(tera, par)
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

// ext10WavesRun runs the chained unique-key WordCount waves on one session.
// With a non-nil fixed candidate the configuration is pinned explicitly;
// with fixed nil the session opens under WithPlanner using spec with the
// adaptive monitor attached; the static decision it opened on and the
// monitor are returned with the time.
func ext10WavesRun(engine string, fixed *ext10Cand, spec *planner.PlanSpec, wave []byte) (ext10Waved, error) {
	rt, err := cluster.NewRuntime(ext10Spec, ext10ClusterCore)
	if err != nil {
		return ext10Waved{}, err
	}
	conf := ext10BaseConf()
	if fixed != nil {
		conf.Set(core.ShuffleStrategy, fixed.strat).
			SetInt(core.SparkDefaultParallelism, fixed.par).
			SetInt(core.FlinkDefaultParallelism, fixed.par).
			SetInt(mapreduce.MRReduceTasks, fixed.par)
	}
	opts := []dataflow.Option{
		dataflow.WithConfig(conf), dataflow.WithRuntime(rt),
		dataflow.WithFS(dfs.New(ext10Spec.Nodes, 16*core.KB, 1)),
	}
	if spec != nil {
		opts = append(opts, dataflow.WithPlanner(*spec),
			dataflow.WithPlannerSpace(ext10Parallelisms, []string{"none"}))
	}
	s, err := dataflow.Open(engine, opts...)
	if err != nil {
		return ext10Waved{}, err
	}
	for w := 0; w < ext10Waves; w++ {
		s.FS().WriteFile(fmt.Sprintf("ext10-u%d", w), wave)
	}
	out := ext10Waved{static: s.PlannerDecision()}
	if spec != nil {
		out.mon = s.StartAdaptive()
		defer out.mon.Detach()
	}
	start := time.Now()
	for w := 0; w < ext10Waves; w++ {
		if err := workloads.WordCount(s, fmt.Sprintf("ext10-u%d", w), fmt.Sprintf("ext10-u%d-out", w)); err != nil {
			return ext10Waved{}, err
		}
		if out.mon != nil {
			// Job boundary: re-baseline the observed counters so the next
			// wave's divergence check compares per-job deltas.
			out.mon.Reset()
		}
	}
	out.sec = time.Since(start).Seconds()
	return out, nil
}

// ext10Waved is one ext10WavesRun: wall-clock of the waves and, for a
// planner-opened session, the static decision and the monitor.
type ext10Waved struct {
	sec    float64
	static *planner.Decision
	mon    *planner.Monitor
}

// ext10FixedWaves measures the waves once on a pinned configuration.
func ext10FixedWaves(wave []byte) func(ext10Cand) (float64, error) {
	return func(cand ext10Cand) (float64, error) {
		run, err := ext10WavesRun(cand.engine, &cand, nil, wave)
		if err != nil {
			return 0, fmt.Errorf("ext10 waves %s: %w", cand, err)
		}
		return run.sec, nil
	}
}

// ext10Adaptive is the adaptive cell's outcome: the planner-adaptive waves,
// and the same waves on every fixed configuration to judge them against.
type ext10Adaptive struct {
	sec     float64
	start   ext10Cand // the static choice the adaptive run began on
	held    float64   // the waves held on start throughout, re-measured in alternation with sec
	final   *planner.Decision
	replans int
	trace   string
	fixed   map[ext10Cand]float64
}

// ext10AdaptiveCell measures the unique-key waves, best of ext10Trials:
// fixed on each candidate, then planner-adaptive on mapreduce — static
// decision from input bytes only (cardinality unknown), runtime re-planning
// on. Decision, re-plan count and trace are the last adaptive run's; they
// do not depend on timing.
func ext10AdaptiveCell() (*ext10Adaptive, error) {
	wave := ext10UniqueText(ext10WaveBytes)
	fixed, err := ext10Sweep(ext10Trials, ext10FixedWaves(wave))
	if err != nil {
		return nil, err
	}
	ad := &ext10Adaptive{sec: math.Inf(1), held: math.Inf(1), fixed: fixed}
	fixedWaves := ext10FixedWaves(wave)
	spec := planner.PlanSpec{
		Workload: "WordCount-unique",
		Shape:    planner.Aggregate,
		Input:    planner.InputStats{Bytes: int64(len(wave))},
	}
	for i := 0; i < ext10Trials; i++ {
		run, err := ext10WavesRun("mapreduce", nil, &spec, wave)
		if err != nil {
			return nil, fmt.Errorf("ext10 adaptive: %w", err)
		}
		ad.sec = min(ad.sec, run.sec)
		c := run.static.Chosen
		ad.start = ext10Cand{engine: c.Engine, strat: c.Strategy, par: c.Parallelism}
		ad.final, ad.replans = run.mon.Decision(), run.mon.Replans()
		// The sweep measured this configuration seconds ago, under
		// whatever load the machine had then; the adaptive run is judged
		// against it, so the two minima are taken over alternating runs.
		held, err := fixedWaves(ad.start)
		if err != nil {
			return nil, err
		}
		ad.held = min(ad.held, held)
	}
	ad.trace = ad.final.Trace.Render()
	return ad, nil
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
