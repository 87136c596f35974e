package main

import (
	"encoding/json"
	"math"
	"os"

	"repro/internal/experiments"
)

// The -json output: the perf trajectory artifact CI uploads per push
// (BENCH_*.json). NaN cells (failed runs, filtered engines) are omitted,
// which encoding/json would otherwise reject. Latency reports (ext7)
// carry *_p50_ms/*_p99_ms fields instead of the *_s runtime columns.

type jsonRow struct {
	Label        string   `json:"label"`
	Spark        *float64 `json:"spark_s,omitempty"`
	SparkStd     *float64 `json:"spark_std,omitempty"`
	Flink        *float64 `json:"flink_s,omitempty"`
	FlinkStd     *float64 `json:"flink_std,omitempty"`
	MapReduce    *float64 `json:"mapreduce_s,omitempty"`
	MapReduceStd *float64 `json:"mapreduce_std,omitempty"`
	// Latency reports (ext7/ext8): percentiles in milliseconds instead of
	// the *_s runtime columns above. For ext7, spark = micro-batch and
	// flink = per-event; for ext8 the cells are per-job JCT percentiles.
	SparkP50     *float64 `json:"spark_p50_ms,omitempty"`
	SparkP99     *float64 `json:"spark_p99_ms,omitempty"`
	FlinkP50     *float64 `json:"flink_p50_ms,omitempty"`
	FlinkP99     *float64 `json:"flink_p99_ms,omitempty"`
	MapReduceP50 *float64 `json:"mapreduce_p50_ms,omitempty"`
	MapReduceP99 *float64 `json:"mapreduce_p99_ms,omitempty"`
	// Contention reports (ext8): cluster utilization over the makespan and
	// p99 queue delay (submission → first slot grant) per engine run.
	SparkUtil     *float64 `json:"spark_util,omitempty"`
	FlinkUtil     *float64 `json:"flink_util,omitempty"`
	MapReduceUtil *float64 `json:"mapreduce_util,omitempty"`
	SparkQD99     *float64 `json:"spark_queue_p99_ms,omitempty"`
	FlinkQD99     *float64 `json:"flink_queue_p99_ms,omitempty"`
	MapReduceQD99 *float64 `json:"mapreduce_queue_p99_ms,omitempty"`
	// Planner reports (ext10): measured seconds of the planner's choice,
	// the oracle sweep's best and worst fixed configurations, the regret
	// ratio and the re-plan count. All lower-is-better, so the guard's
	// generic comparison applies; the chosen configuration rides in note.
	PlannerSec *float64 `json:"planner_choice_s,omitempty"`
	OracleSec  *float64 `json:"oracle_s,omitempty"`
	WorstSec   *float64 `json:"worst_fixed_s,omitempty"`
	Regret     *float64 `json:"planner_regret,omitempty"`
	Replans    *float64 `json:"replans,omitempty"`
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
			jr.Replans = finite(row.Replans)
		} else if rep.Latency {
			jr.SparkP50 = finite(row.Spark)
			jr.SparkP99 = finite(row.SparkP99)
			jr.FlinkP50 = finite(row.Flink)
			jr.FlinkP99 = finite(row.FlinkP99)
			if rep.ThreeWay {
				jr.MapReduceP50 = finite(row.MapRed)
				jr.MapReduceP99 = finite(row.MapRedP99)
			}
			jr.SparkUtil = finite(row.SparkUtil)
			jr.FlinkUtil = finite(row.FlinkUtil)
			jr.MapReduceUtil = finite(row.MapRedUtil)
			jr.SparkQD99 = finite(row.SparkQD99)
			jr.FlinkQD99 = finite(row.FlinkQD99)
			jr.MapReduceQD99 = finite(row.MapRedQD99)
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
