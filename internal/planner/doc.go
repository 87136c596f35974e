// Package planner is the adaptive execution layer between the logical
// dataflow plans and the engines: a cost-model-driven optimizer that picks
// the physical configuration before launch and revises it mid-run when the
// data contradicts its estimates. It operationalizes the paper's
// conclusion that no engine or tuning wins everywhere — parameter
// configuration is "tedious work" the paper does by hand and this package
// does from the calibrated cost models.
//
// # Decision flow
//
// Static planning happens once, before execution:
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
// dataflow.WithPlanner runs PlanFor(engine, spec) at session open, so any
// workload on any backend gets a planned configuration with one option.
//
// # Conf-key precedence
//
// The planner NEVER overrides a key the user set explicitly. core.Config
// marks every post-construction Set as explicit; Decision.Apply writes
// through SetDerived, which yields to explicit values, and records an
// EvSkip trace event for each key it leaves alone. Planner writes lose,
// user writes win — always, including on re-plans.
//
// # Runtime re-planning
//
// A Monitor subscribes to stage boundaries (metrics.SetStageObserver) and
// compares the observed cumulative raw shuffle volume against the
// decision's estimate. The trigger rule:
//
//	observed / estimated > planner.replan.ratio   (default 2.0)
//
// fires a re-plan of the remaining work, with the divergence attributed by
// shape: Sort shapes correct the input size (every byte repartitions, so
// the observed volume IS the size), Aggregate shapes correct the
// distinct-key fraction from the observed combine ratio — the classic
// combiner-selectivity misestimate. The corrected decision keeps the
// running engine pinned, goes through the same Apply precedence rules, and
// appends an EvReplan event to the one shared Trace. Engines resolve
// shuffle settings per job (MapReduce), per shuffle dependency (Spark) or
// per exchange (Flink), so a corrected configuration takes effect at the
// next such resolution point: later shuffles of the same job, and every
// following job in the session. Re-plans are bounded (maxReplans) so a
// confusing workload cannot oscillate.
//
// The hash→sort aggregation fallback was the calibrated flip: on
// high-cardinality keys MapReduce's hash combine table degrades more than
// its sort path, so a Monitor watching a WordCount whose combiner turned out
// useless switched strategy the moment the first stage's counters arrived.
// Since MapReduce's sort path measures under its hash path at the default
// cardinality too, the calibrated model starts on sort and the same re-plan
// corrects the estimate and keeps the configuration. See the ext10
// experiment family for the measured rows.
package planner
