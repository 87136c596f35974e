package dataflow

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine/flink"
	"repro/internal/engine/spark"
)

// Sink is an action that has not run, for PlanOf: SaveSink and CountSink
// over a dataset, Iteration.Sink over an iteration.
type Sink struct {
	s *Session
	// add lowers the action's input, as running the action does, and adds
	// the action to r.
	add func(r *planSinks) error
}

// planSinks collects the sinks of one PlanOf rendering, per engine.
type planSinks struct {
	spark []spark.Sink
	flink []flink.Sink
	mr    mrPlan
	mrOut []*core.PlanNode
}

// PlanOf renders, without running anything, the physical plan that running
// the actions in sinks would execute on their session's engine — one row of
// the paper's Table I. Each dataset lowers through the memoized lowering its actions
// run, and the engine renders what that built: spark the RDD lineage, flink
// its optimized dataflow, mapreduce the jobs and waves its frags run, read
// off their mapreduce.Job values. Lowering opens the file sources on spark
// and flink, so their inputs must exist.
func PlanOf(workload string, sinks ...Sink) (*core.Plan, error) {
	if len(sinks) == 0 {
		return nil, fmt.Errorf("dataflow: plan %s has no sinks", workload)
	}
	s := sinks[0].s
	var r planSinks
	for _, sk := range sinks {
		if sk.s != s {
			return nil, fmt.Errorf("dataflow: plan %s mixes sessions", workload)
		}
		if err := sk.add(&r); err != nil {
			return nil, err
		}
	}
	switch s.kind {
	case Spark:
		return spark.PlanOf(workload, r.spark...), nil
	case Flink:
		return flink.PlanOf(workload, r.flink...), nil
	default:
		return &core.Plan{Framework: "mapreduce", Workload: workload, Sinks: r.mrOut}, nil
	}
}

// SaveSink is SaveAsText or SaveBytes on d: the parallel tasks that produce
// d's partitions write them, so the plan ends in a DataSink.
func SaveSink[T any](d *Dataset[T]) Sink { return actionSink(d, "DataSink", false) }

// CountSink is Count on d. On mapreduce the count is a job of its own.
func CountSink[T any](d *Dataset[T]) Sink { return actionSink(d, "Count", true) }

func actionSink[T any](d *Dataset[T], label string, countsInJob bool) Sink {
	return Sink{s: d.s, add: func(r *planSinks) error {
		switch d.s.kind {
		case Spark:
			rdd, err := repOf[*spark.RDD[T]](d)
			if err != nil {
				return err
			}
			r.spark = append(r.spark, spark.SinkOf(rdd, label))
		case Flink:
			ds, err := repOf[*flink.DataSet[T]](d)
			if err != nil {
				return err
			}
			r.flink = append(r.flink, flink.SinkOf(ds, label))
		default:
			fr, err := repOf[*mrFrag[T]](d)
			if err != nil {
				return err
			}
			top := fr.render(&r.mr)
			if countsInJob {
				top = r.mr.job(core.OpCount, countJob[T]().Operators(), top)
			}
			r.mrOut = append(r.mrOut, r.mr.node(core.OpSink, label, top))
		}
		return nil
	}}
}
