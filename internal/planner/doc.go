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
//	Planner.Plan ── enumerates engine × {hash,sort} × {none,lz} × parallelism
//	        │        and prices each through a CostProvider (SimCost wraps
//	        │        the calibrated sim.Estimate model)
//	        ▼
//	Decision{Chosen, Est, Table, Trace} ── Apply(conf) writes the choice
//	                                       into the engine conf keys
//
// A caller that has already picked a backend plans with PlanFor(engine,
// spec), applies the decision to its configuration and opens the session
// on it:
//
//	d, err := (&planner.Planner{Provider: &planner.SimCost{Base: conf}, Spec: rt.Spec()}).
//	        PlanFor("mapreduce", spec)
//	d.Apply(conf)
//	s, err := dataflow.Open("mapreduce", dataflow.WithConfig(conf), dataflow.WithRuntime(rt))
//
// The engines resolve their settings once, when the session opens, so the
// configuration a decision writes is the configuration every job of the
// session runs; nothing revises it mid-run. The record path
// (internal/dataflow and the engines) does not import this package.
//
// # Conf-key precedence
//
// The planner NEVER overrides a key the user set explicitly. core.Config
// marks every post-construction Set as explicit; Decision.Apply writes
// through SetDerived, which yields to explicit values, and records an
// EvSkip trace event for each key it leaves alone. Planner writes lose,
// user writes win — always.
//
// The ext10 experiment family measures the planner's static choices
// against an oracle sweep of every candidate on the real engines, and
// `make calibrate` prints each measurement beside its estimate.
package planner
