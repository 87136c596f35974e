package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
)

// The engine filter lets one engine's numbers be regenerated without
// running the full matrix (benchrunner's -engines flag, over
// dataflow.Names()). A nil filter runs everything; filtered-out
// engines render as "-" cells.

var engineFilter map[sim.EngineKind]bool

// SetEngineFilter restricts every experiment to the named engines
// ("spark", "flink", "mapreduce"). An empty list clears the filter.
// Names are matched against the SIMULATED engine set, which mirrors
// dataflow.Names() one-to-one today; a new real engine also needs a
// sim.EngineKind before the experiment harness can replay it.
func SetEngineFilter(names []string) error {
	if len(names) == 0 {
		engineFilter = nil
		return nil
	}
	m := map[sim.EngineKind]bool{}
	for _, name := range names {
		found := false
		for _, e := range sim.Engines() {
			if e.String() == name {
				m[e] = true
				found = true
			}
		}
		if !found {
			known := make([]string, 0, len(sim.Engines()))
			for _, e := range sim.Engines() {
				known = append(known, e.String())
			}
			sort.Strings(known)
			return fmt.Errorf("experiments: unknown engine %q (known: %v)", name, known)
		}
	}
	engineFilter = m
	return nil
}

// engineOn reports whether the filter admits the engine.
func engineOn(e sim.EngineKind) bool {
	return engineFilter == nil || engineFilter[e]
}

// enabled filters an engine list, keeping report-column order.
func enabled(all []sim.EngineKind) []sim.EngineKind {
	out := make([]sim.EngineKind, 0, len(all))
	for _, e := range all {
		if engineOn(e) {
			out = append(out, e)
		}
	}
	return out
}

// skippedRow pre-marks every engine cell as skipped; the runners overwrite
// the cells of the engines they actually execute.
func skippedRow(label, note string) Row {
	return Row{
		Label: label, PaperNote: note,
		Spark: math.NaN(), Flink: math.NaN(), MapRed: math.NaN(),
		SparkP99: math.NaN(), FlinkP99: math.NaN(),
	}
}
