package workloads

import (
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dataflow/backend/flinkexec"
	"repro/internal/dataflow/backend/sparkexec"
	"repro/internal/engine/flink"
	"repro/internal/engine/spark"
)

// sparkSession wraps an existing spark context in a dataflow session, for
// callers that hold engine-native handles (plan rendering, engine tests).
func sparkSession(ctx *spark.Context) *dataflow.Session {
	return dataflow.NewSession(sparkexec.Wrap(ctx))
}

// flinkSession wraps an existing flink environment in a dataflow session.
func flinkSession(env *flink.Env) *dataflow.Session {
	return dataflow.NewSession(flinkexec.Wrap(env))
}

// Plans builds (without executing) the logical plans of every workload on
// both in-memory frameworks — the data behind the paper's Table I, one row
// per workload and framework. Every row comes from the definition the
// workload runs, lowered per backend: the batch rows from the unified
// dataflow pipelines, the graph rows from dataflow/graph's Pregel builders.
// cmd/planviz additionally prints the MapReduce column via UnifiedPlans.
func Plans(ctx *spark.Context, env *flink.Env) ([]*core.Plan, error) {
	sessions := []*dataflow.Session{sparkSession(ctx), flinkSession(env)}
	var plans []*core.Plan
	for _, build := range []func(*dataflow.Session) *core.Plan{
		WordCountPlan, GrepPlan, TeraSortPlan, KMeansPlan,
	} {
		for _, s := range sessions {
			plans = append(plans, build(s))
		}
	}
	for _, build := range []func(*dataflow.Session) (*core.Plan, error){
		PageRankPlan, ConnectedComponentsPlan,
	} {
		for _, s := range sessions {
			p, err := build(s)
			if err != nil {
				return nil, err
			}
			plans = append(plans, p)
		}
	}
	return plans, nil
}

// GraphPlans renders the Page Rank and Connected Components plans on the
// session's engine, like UnifiedPlans does for the batch workloads. Graph
// plans render on spark and flink only; on mapreduce it returns an error.
func GraphPlans(s *dataflow.Session) ([]*core.Plan, error) {
	pr, err := PageRankPlan(s)
	if err != nil {
		return nil, err
	}
	cc, err := ConnectedComponentsPlan(s)
	if err != nil {
		return nil, err
	}
	return []*core.Plan{pr, cc}, nil
}
