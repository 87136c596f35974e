package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// ext6 is the fourth experiment family: the paper's Section V sensitivity
// analysis (shuffle tuning × task parallelism) replayed on the REAL
// mini-engines through the shared internal/shuffle core. Every cell is a
// measured wall-clock mean ± std at laptop scale — the same workload
// definition, the same strategy implementation, three physical engines.

func init() {
	register("ext6", "Shuffle strategy × parallelism — Word Count & Tera Sort on the real engines", runExt6)
}

// ext6Trials is the number of runs behind each cell's mean ± std.
const ext6Trials = 3

// runExt6 measures ext10's small cells (192 KiB of text, 4000 TeraGen
// records) through ext10's sessions: the same 2 × 8 testbed, memory settings
// and DFS blocks, so the two experiments read one set of inputs. The
// parallelisms are ext10's too: the low point under-subscribes the 16-slot
// testbed, the high point matches the slot budget (the paper's "at most as
// many tasks as slots" rule for pipelined plans).
func runExt6() (*Report, error) {
	rep := &Report{
		ID:       "ext6",
		Title:    "Shuffle strategy × parallelism, real engines (WordCount + TeraSort)",
		ThreeWay: true,
		Notes: []string{
			"cells: measured wall-clock seconds at laptop scale (2 nodes × 8 slots), mean ± std over " + fmt.Sprint(ext6Trials) + " runs",
			"hash = bucketed pipelined repartition; sort = spill-and-merge with map-side combine (internal/shuffle)",
			"lit (Sec. V): shuffle implementation and task parallelism are the knobs behind most of the spark-flink gap",
		},
	}
	for _, c := range []ext10Cell{wordCountCell(ext10SmallBytes), teraSortCell(ext10SmallTera)} {
		for _, strat := range []string{"hash", "sort"} {
			for _, par := range ext10Parallelisms {
				row := skippedRow(fmt.Sprintf("%s %s p=%d", c.wl, strat, par), "")
				for _, engine := range enabled(sim.Engines()) {
					times := make([]float64, 0, ext6Trials)
					for i := 0; i < ext6Trials; i++ {
						sec, err := c.run(ext10Cand(engine.String(), strat, par))
						if err != nil {
							return nil, fmt.Errorf("ext6: %w", err)
						}
						times = append(times, sec)
					}
					s := stats.Summarize(times)
					switch engine {
					case sim.Spark:
						row.Spark, row.SparkStd = s.Mean, s.Std
					case sim.Flink:
						row.Flink, row.FlinkStd = s.Mean, s.Std
					case sim.MapReduce:
						row.MapRed, row.MapRedStd = s.Mean, s.Std
					}
				}
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	return rep, nil
}
