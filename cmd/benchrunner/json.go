package main

import (
	"encoding/json"
	"math"
	"os"

	"repro/internal/experiments"
)

// The -json output: the perf trajectory artifact CI uploads per push
// (BENCH_*.json). NaN cells (failed runs, filtered engines) are omitted,
// which encoding/json would otherwise reject. Planner reports (ext10)
// carry their regret columns instead of the *_s runtime columns.

type jsonRow struct {
	Label        string   `json:"label"`
	Spark        *float64 `json:"spark_s,omitempty"`
	SparkStd     *float64 `json:"spark_std,omitempty"`
	Flink        *float64 `json:"flink_s,omitempty"`
	FlinkStd     *float64 `json:"flink_std,omitempty"`
	MapReduce    *float64 `json:"mapreduce_s,omitempty"`
	MapReduceStd *float64 `json:"mapreduce_std,omitempty"`
	// Planner reports (ext10): measured seconds of the planner's choice,
	// the oracle sweep's best and worst fixed configurations and the regret
	// ratio. All lower-is-better, so the guard's
	// generic comparison applies; the chosen configuration rides in note.
	PlannerSec *float64 `json:"planner_choice_s,omitempty"`
	OracleSec  *float64 `json:"oracle_s,omitempty"`
	WorstSec   *float64 `json:"worst_fixed_s,omitempty"`
	Regret     *float64 `json:"planner_regret,omitempty"`
	Note       string   `json:"note,omitempty"`
}

type jsonReport struct {
	ID    string     `json:"id"`
	Title string     `json:"title"`
	Rows  []jsonRow  `json:"rows,omitempty"`
	Table [][]string `json:"table,omitempty"`
	Notes []string   `json:"notes,omitempty"`
}

func finite(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func toJSONReport(rep *experiments.Report) jsonReport {
	out := jsonReport{ID: rep.ID, Title: rep.Title, Table: rep.Table, Notes: rep.Notes}
	for _, row := range rep.Rows {
		jr := jsonRow{Label: row.Label, Note: row.PaperNote}
		if rep.Planner {
			jr.PlannerSec = finite(row.PlannerSec)
			jr.OracleSec = finite(row.OracleSec)
			jr.WorstSec = finite(row.WorstSec)
			jr.Regret = finite(row.Regret)
		} else {
			jr.Spark = finite(row.Spark)
			jr.SparkStd = finite(row.SparkStd)
			jr.Flink = finite(row.Flink)
			jr.FlinkStd = finite(row.FlinkStd)
			if rep.ThreeWay {
				jr.MapReduce = finite(row.MapRed)
				jr.MapReduceStd = finite(row.MapRedStd)
			}
		}
		out.Rows = append(out.Rows, jr)
	}
	return out
}

// writeJSON writes the collected reports as an indented JSON array.
func writeJSON(name string, reps []*experiments.Report) error {
	out := make([]jsonReport, len(reps))
	for i, rep := range reps {
		out[i] = toJSONReport(rep)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(name, append(data, '\n'), 0o644)
}
