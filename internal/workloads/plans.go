package workloads

import (
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/engine/flink"
	"repro/internal/engine/spark"
)

// Plans builds (without executing) the logical plans of every workload on
// both in-memory frameworks — the data behind the paper's Table I, one row
// per workload and framework. Every row renders what the workload runs: the
// batch rows from the unified dataflow pipelines as each engine lowers them,
// the graph rows from dataflow/graph's Pregel builders.
// cmd/planviz additionally prints the MapReduce column via UnifiedPlans.
func Plans(ctx *spark.Context, env *flink.Env) ([]*core.Plan, error) {
	sessions := []*dataflow.Session{dataflow.NewSession(ctx), dataflow.NewSession(env)}
	var plans []*core.Plan
	for _, build := range []func(*dataflow.Session) (*core.Plan, error){
		WordCountPlan, GrepPlan, TeraSortPlan, KMeansPlan, PageRankPlan, ConnectedComponentsPlan,
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
