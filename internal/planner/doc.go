// Package planner is the offline configuration advisor between the logical
// dataflow plans and the engines: a cost-model-driven optimizer that picks
// the physical configuration before a session opens. It operationalizes
// the paper's conclusion that no engine or tuning wins everywhere —
// parameter configuration is "tedious work" the paper does by hand, once
// per run, and this package does from the calibrated cost models.
//
// # Decision flow
//
// Planning happens once, before execution:
//
//	PlanSpec{workload, Shape, InputStats}          cluster.Spec
//	        │                                           │
//	        ▼                                           ▼
//	Planner.Plan ── enumerates engine × shuffle.strategy × shuffle.compress
//	        │        × parallelism (the strategies and codecs core.Config
//	        │        declares legal) and prices each through a CostProvider
//	        │        (SimCost wraps the calibrated sim.Estimate model)
//	        ▼
//	Decision{Chosen, Est, Table, Trace} ── Chosen.Configure(conf) writes the
//	                                       choice into the engine conf keys
//
// A caller that has already picked a backend lists it in Planner.Engines,
// writes the decision into its configuration and opens the session on it:
//
//	pl := &planner.Planner{Provider: &planner.SimCost{Base: conf}, Spec: rt.Spec(),
//	        Engines: []string{"mapreduce"}}
//	d, err := pl.Plan(spec)
//	d.Chosen.Configure(conf)
//	s, err := dataflow.Open("mapreduce", dataflow.WithConfig(conf), dataflow.WithRuntime(rt))
//
// Configure writes five keys: shuffle.strategy, shuffle.compress and the
// candidate's parallelism as every engine's reduce-side task count. SimCost
// prices a candidate on a copy of Base configured the same way, so the
// configuration a decision was priced on is the one the session opens
// with. The engines copy their settings when the session opens, so every
// job of the session runs under it; nothing revises it mid-run. The record
// path (internal/dataflow and the engines) does not import this package.
//
// The ext10 experiment family measures the planner's static choices
// against an oracle sweep of every candidate on the real engines, and
// `make calibrate` prints each measurement beside its estimate.
package planner
