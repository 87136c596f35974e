package spark

import (
	"repro/internal/core"
)

// Sink is an action over an RDD: one sink of a PlanOf rendering.
type Sink struct {
	rdd    anyRDD
	action string
}

// SinkOf names the action run on r.
func SinkOf(r anyRDD, action string) Sink { return Sink{rdd: r, action: action} }

// PlanOf renders the lineage of every sink's RDD as one core.Plan, each
// ending in its action node — the form cmd/planviz and experiment tab1 print
// as the paper's Table I. An RDD several sinks reach is one node.
func PlanOf(workload string, sinks ...Sink) *core.Plan {
	nodes := make(map[int]*core.PlanNode)
	nextID := 0
	var build func(r anyRDD) *core.PlanNode
	build = func(r anyRDD) *core.PlanNode {
		if n, ok := nodes[r.rddID()]; ok {
			return n
		}
		nextID++
		n := core.NewPlanNode(nextID, r.opKind(), r.label())
		nodes[r.rddID()] = n
		for _, d := range r.deps() {
			n.Inputs = append(n.Inputs, build(d.parent))
		}
		return n
	}
	plan := &core.Plan{Framework: "spark", Workload: workload}
	for _, s := range sinks {
		top := build(s.rdd)
		nextID++
		plan.Sinks = append(plan.Sinks, core.NewPlanNode(nextID, core.OpSink, s.action, top))
	}
	return plan
}
