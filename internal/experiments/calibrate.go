package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"

	"repro/internal/planner"
)

// calibrateTrials is how many runs each cell's minimum is taken over; the
// cells last milliseconds, so the probe takes more runs than ext10Trials.
const calibrateTrials = 7

// Calibrate is the probe behind `make calibrate`: it runs the ext10 size
// sweep on the real engines — every (engine × strategy × parallelism)
// configuration on WordCount and TeraSort at two sizes, then the WC-unique
// rows: ext10Waves chained WordCounts over unique keys (ext10UniqueText),
// estimated with DistinctFrac 1 — and prints each measurement beside
// sim.Estimate's prediction with the residual. The second table splits
// every configuration's two sizes into a fixed part and a per-MiB slope,
// measured and modelled: the [ANCHOR ext10] constants in
// internal/sim/estimate.go are those intercepts and slopes, and their
// comments say which rows each is read from.
func Calibrate(w io.Writer) error {
	cost := planner.SimCost{Base: ext10BaseConf()}
	estimate := func(spec planner.PlanSpec, c ext10Cand) (float64, error) {
		est, err := cost.Estimate(spec, planner.Candidate{
			Engine: c.engine, Strategy: c.strat, Compress: "none", Parallelism: c.par}, ext10Spec)
		return est.Seconds, err
	}
	relErr := map[string][]float64{} // engine → |est/meas − 1| per cell
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	row := func(label string, c ext10Cand, meas, est float64) {
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.1f\t%.2f\n", label, c, meas, est, (est-meas)*1e3, est/meas)
		relErr[c.engine] = append(relErr[c.engine], math.Abs(est/meas-1))
	}

	fmt.Fprintf(w, "== measured (best of %d) vs sim.Estimate ==\n", calibrateTrials)
	fmt.Fprintln(tw, "cell\tconfig\tmeasured s\testimate s\tresidual ms\test/meas")
	type point struct{ miB, meas, est float64 }
	points := map[string]map[ext10Cand][]point{} // workload → config → sizes, ascending
	for _, c := range ext10Cells() {
		measured, err := ext10Sweep(calibrateTrials, c.run)
		if err != nil {
			return err
		}
		if points[c.wl] == nil {
			points[c.wl] = map[ext10Cand][]point{}
		}
		for _, cand := range ext10Candidates() {
			est, err := estimate(c.spec, cand)
			if err != nil {
				return err
			}
			row(c.label, cand, measured[cand], est)
			points[c.wl][cand] = append(points[c.wl][cand],
				point{float64(c.spec.Input.Bytes) / (1 << 20), measured[cand], est})
		}
	}

	wave := ext10UniqueText(ext10WaveBytes)
	unique := planner.PlanSpec{Workload: "WordCount-unique", Shape: planner.Aggregate,
		Input: planner.InputStats{Bytes: int64(len(wave)), DistinctFrac: 1}}
	waves, err := ext10Sweep(calibrateTrials, ext10FixedWaves(wave))
	if err != nil {
		return err
	}
	for _, cand := range ext10Candidates() {
		est, err := estimate(unique, cand)
		if err != nil {
			return err
		}
		row(fmt.Sprintf("WC-unique %d×192KiB", ext10Waves), cand, waves[cand], est*ext10Waves)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n== fixed part and slope of each configuration, from its two sizes ==")
	fmt.Fprintln(tw, "workload\tconfig\tmeasured fixed ms\tmodel fixed ms\tmeasured s/MiB\tmodel s/MiB")
	for _, wl := range []string{"WordCount", "TeraSort"} {
		for _, cand := range ext10Candidates() {
			p := points[wl][cand]
			small, large := p[0], p[1]
			line := func(a, b float64) (fixed, slope float64) {
				slope = (b - a) / (large.miB - small.miB)
				return a - slope*small.miB, slope
			}
			mf, ms := line(small.meas, large.meas)
			ef, es := line(small.est, large.est)
			fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.1f\t%.4f\t%.4f\n", wl, cand, mf*1e3, ef*1e3, ms, es)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n== |est/meas − 1| per engine ==")
	fmt.Fprintln(tw, "engine\tcells\tmedian\tworst")
	for _, engine := range []string{"spark", "flink", "mapreduce"} {
		e := relErr[engine]
		sort.Float64s(e)
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\n", engine, len(e), e[len(e)/2], e[len(e)-1])
	}
	return tw.Flush()
}
