package flink

import (
	"strings"

	"repro/internal/core"
)

// Sink is an action over a DataSet: one sink of a PlanOf rendering.
type Sink struct {
	ds    anyDataSet
	label string
}

// SinkOf names the action run on d.
func SinkOf(d anyDataSet, label string) Sink { return Sink{ds: d, label: label} }

// PlanOf renders the optimized dataflow of every sink as one core.Plan:
// each operator chain becomes one node labelled "A->B->C" exactly like the
// paper's figure captions (DC=DataSource->FlatMap->GroupCombine, …), with
// one edge per exchange. A bulk iteration's inputs include its step
// dataflow, built once over a placeholder partial solution and never run.
// Every sink is a job of its own and Flink keeps nothing between jobs, so
// a DataSet two sinks reach renders once per sink.
func PlanOf(workload string, sinks ...Sink) *core.Plan {
	nextID := 0
	var nodes map[int]*core.PlanNode
	var build func(d anyDataSet) *core.PlanNode
	build = func(d anyDataSet) *core.PlanNode {
		if n, ok := nodes[d.dsID()]; ok {
			return n
		}
		parents := exchangeParents(d)
		if step := d.stepPlan(); step != nil {
			parents = append(parents, step())
		}
		kind := d.opKind()
		if len(parents) == 0 {
			// A chain with no exchange input starts at a source.
			kind = core.OpSource
		}
		nextID++
		n := core.NewPlanNode(nextID, kind, strings.Join(d.chainLabels(), "->"))
		nodes[d.dsID()] = n
		for _, p := range parents {
			n.Inputs = append(n.Inputs, build(p))
		}
		return n
	}
	plan := &core.Plan{Framework: "flink", Workload: workload}
	for _, s := range sinks {
		nodes = make(map[int]*core.PlanNode)
		top := build(s.ds)
		nextID++
		plan.Sinks = append(plan.Sinks, core.NewPlanNode(nextID, core.OpSink, s.label, top))
	}
	return plan
}

// exchangeParents walks through chained (same-task) edges and returns the
// datasets feeding d across exchanges — the plan-visible inputs.
func exchangeParents(d anyDataSet) []anyDataSet {
	var out []anyDataSet
	var walk func(x anyDataSet)
	walk = func(x anyDataSet) {
		for _, in := range x.planInputs() {
			if in.exchange {
				out = append(out, in.ds)
			} else {
				walk(in.ds)
			}
		}
	}
	walk(d)
	return out
}
