package workloads

import (
	"repro/internal/core"
	"repro/internal/dataflow"
)

// Plans builds (without executing) the logical plans of every workload on
// each session's engine — the data behind the paper's Table I, one row per
// workload and session, workload by workload. Every row renders what the
// workload runs: the batch rows from the unified dataflow pipelines as each
// engine lowers them, the graph rows from dataflow/graph's Pregel builders,
// so the sessions are spark and flink ones (graph plans render on no other).
// cmd/planviz additionally prints the MapReduce column via UnifiedPlans.
func Plans(sessions ...*dataflow.Session) ([]*core.Plan, error) {
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
