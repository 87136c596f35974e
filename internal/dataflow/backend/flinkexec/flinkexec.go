// Package flinkexec adapts the flink mini-engine to the dataflow layer:
// it owns environment construction and lowers logical plans the way
// Flink's optimizer would — narrow operators chained into their producer's
// task ("DataSource->FlatMap->Map"), a GroupCombine chained ahead of every
// combinable reduction (a plan node: the fold itself runs in the exchange's
// shuffle writer), partitionCustom→sortPartition for sorts, and
// iterations as a native bulk-iteration operator scheduled once. A dataset
// consumed by several actions is lowered once per action, because Flink
// has no persistence control (the paper's Section VI-B) — the rendered
// plan shows the repeated chains.
package flinkexec

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dfs"
	"repro/internal/engine/flink"
	"repro/internal/metrics"
)

func init() {
	dataflow.Register("flink", func(conf *core.Config, rt *cluster.Runtime, fs *dfs.FS) dataflow.Backend {
		return New(conf, rt, fs)
	})
}

// Backend implements dataflow.Backend over a *flink.Env.
type Backend struct {
	env *flink.Env
}

// New builds an environment over the substrate and wraps it.
func New(conf *core.Config, rt *cluster.Runtime, fs *dfs.FS) *Backend {
	return Wrap(flink.NewEnv(conf, rt, fs))
}

// Wrap adapts an existing environment.
func Wrap(env *flink.Env) *Backend { return &Backend{env: env} }

// Kind reports the pipelined execution model.
func (b *Backend) Kind() dataflow.Kind { return dataflow.Flink }

// Name returns the registry name.
func (b *Backend) Name() string { return "flink" }

// FS returns the engine's filesystem.
func (b *Backend) FS() *dfs.FS { return b.env.FS() }

// Metrics returns the engine's job counters.
func (b *Backend) Metrics() *metrics.JobMetrics { return b.env.Metrics() }

// Timeline returns the engine's operator timeline.
func (b *Backend) Timeline() *metrics.Timeline { return b.env.Timeline() }

// Handle exposes the environment for typed lowering.
func (b *Backend) Handle() any { return b.env }

// Env returns the wrapped engine entry point.
func (b *Backend) Env() *flink.Env { return b.env }

// chainable reports whether the logical operator runs inside its
// producer's task (operator chaining).
func chainable(n *dataflow.Node) bool {
	switch n.Kind {
	case core.OpMap, core.OpFlatMap, core.OpFilter, core.OpMapToPair:
		return len(n.Inputs) == 1
	}
	return false
}

// chainName maps neutral labels onto Flink's chained-operator names
// (mapToPair is a plain Map in Flink's vocabulary).
func chainName(n *dataflow.Node) string {
	switch n.Label {
	case "MapToPair", "KeyBy":
		return "Map"
	default:
		return n.Label
	}
}

// sinkName maps neutral actions onto Flink's sink labels.
var sinkName = map[string]string{
	dataflow.ActionSaveText:    "DataSink",
	dataflow.ActionSaveRecords: "DataSink",
	dataflow.ActionCount:       "Count",
	dataflow.ActionCollect:     "Collect",
	dataflow.ActionIterate:     "DataSink",
}

// LowerPlan renders the logical plan as Flink's optimized dataflow: one
// plan node per operator chain, one edge per exchange.
func (b *Backend) LowerPlan(lp *dataflow.Logical) *core.Plan {
	nextID := 0
	alloc := func(kind core.OpKind, label string, inputs ...*core.PlanNode) *core.PlanNode {
		nextID++
		return core.NewPlanNode(nextID, kind, label, inputs...)
	}
	join := func(labels ...string) string { return strings.Join(labels, "->") }

	// lower builds the chain ending at n; tail is the chained operators a
	// consumer fuses onto it (e.g. the GroupCombine ahead of a reduction).
	var lower func(n *dataflow.Node, tail []string) *core.PlanNode
	lower = func(n *dataflow.Node, tail []string) *core.PlanNode {
		if chainable(n) {
			return lower(n.Inputs[0], append([]string{chainName(n)}, tail...))
		}
		switch {
		case n.Kind == core.OpSource:
			return alloc(core.OpSource, join(append([]string{"DataSource"}, tail...)...))
		case n.Kind == core.OpReduceByKey:
			producerTail := []string{}
			if n.Combinable {
				// The optimizer chains the combiner into the producing
				// task — the paper's DataSource->…->GroupCombine.
				producerTail = []string{"GroupCombine"}
			}
			producer := lower(n.Inputs[0], producerTail)
			return alloc(core.OpGroupReduce, join(append([]string{"GroupReduce"}, tail...)...), producer)
		case n.Kind == core.OpPartition:
			producer := lower(n.Inputs[0], nil)
			return alloc(core.OpPartition, join(append([]string{"Partition", "SortPartition"}, tail...)...), producer)
		case n.Iterations > 0:
			// Native bulk iteration: the step dataflow is scheduled once;
			// the partial solution cycles back with no new scheduling.
			data := lower(n.Inputs[0], nil)
			body := alloc(core.OpGroupReduce, "Map(withBroadcastSet)->GroupCombine->GroupReduce->Map", data)
			state := alloc(core.OpSource, "DataSource(InitialSolution)")
			return alloc(core.OpBulkIteration,
				fmt.Sprintf("BulkIteration(%d)", n.Iterations), body, state)
		default:
			producer := lower(n.Inputs[0], nil)
			return alloc(n.Kind, join(append([]string{n.Label}, tail...)...), producer)
		}
	}
	plan := &core.Plan{Framework: "flink", Workload: lp.Workload}
	action := sinkName[lp.Action]
	if action == "" {
		action = lp.Action
	}
	for _, s := range lp.Sinks {
		plan.Sinks = append(plan.Sinks, alloc(core.OpSink, action, lower(s, nil)))
	}
	return plan
}
