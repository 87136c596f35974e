package dataflow

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/engine/flink"
	"repro/internal/engine/mapreduce"
	"repro/internal/engine/spark"
	"repro/internal/planner"
)

// Option configures Open. The zero set of options is valid: Open builds
// paper-default substrate pieces (config, a small two-node runtime, a DFS
// over its nodes) for whatever the caller leaves out.
type Option func(*openSettings)

type openSettings struct {
	conf     *core.Config
	rt       *cluster.Runtime
	fs       *dfs.FS
	plan     *planner.PlanSpec
	provider planner.CostProvider
	pars     []int
	comps    []string
}

// WithConfig supplies the engine configuration. Omitted: core.NewConfig()
// paper defaults.
func WithConfig(conf *core.Config) Option {
	return func(o *openSettings) { o.conf = conf }
}

// WithRuntime supplies the cluster runtime the engine schedules onto.
// Omitted: a 2-node × 4-core local runtime with one slot per core.
func WithRuntime(rt *cluster.Runtime) Option {
	return func(o *openSettings) { o.rt = rt }
}

// WithFS supplies the distributed filesystem. Omitted: a fresh DFS with
// one block replica per runtime node.
func WithFS(fs *dfs.FS) Option {
	return func(o *openSettings) { o.fs = fs }
}

// WithPlanner runs the cost-based planner before the session starts: the
// plan spec is scored against the session's engine (the engine choice stays
// with the caller — Open already names it) over every shuffle strategy,
// codec and parallelism, and the winning candidate is written into the
// configuration with derived priority, so keys the user set explicitly
// always win. The Decision — chosen candidate, cost table and trace — is
// retrievable with Session.PlannerDecision; Session.StartAdaptive attaches
// the runtime re-planner on top of it.
func WithPlanner(spec planner.PlanSpec) Option {
	return func(o *openSettings) { o.plan = &spec }
}

// WithCostProvider substitutes the planner's cost oracle (default: the
// calibrated simulator via planner.SimCost). Only meaningful together with
// WithPlanner; tests use it to force decisions.
func WithCostProvider(cp planner.CostProvider) Option {
	return func(o *openSettings) { o.provider = cp }
}

// WithPlannerSpace restricts the planner's candidate enumeration to the
// given reduce-side parallelisms and shuffle codecs (nil keeps the planner
// defaults). Experiments use it to make the planner's search space equal an
// oracle sweep's, so regret is measured over the same configurations.
func WithPlannerSpace(parallelisms []int, compressions []string) Option {
	return func(o *openSettings) { o.pars, o.comps = parallelisms, compressions }
}

// defaultSpec is the substrate Open builds when no runtime is supplied: a
// laptop-scale stand-in for one Grid'5000 rack slice, matching the fixture
// most tests construct by hand.
var defaultSpec = cluster.Spec{
	Nodes:        2,
	CoresPerNode: 4,
	MemPerNode:   core.GB,
	DiskSeqMiBps: 500,
	NetMiBps:     500,
}

// Open builds a Session on the named engine, erroring with the engine
// names when the engine is unknown. Substrate pieces not supplied via
// options are constructed with defaults:
//
//	s, err := dataflow.Open("spark")                       // all defaults
//	s, err := dataflow.Open("flink", dataflow.WithConfig(conf),
//	        dataflow.WithRuntime(rt), dataflow.WithFS(fs)) // fully pinned
func Open(name string, opts ...Option) (*Session, error) {
	if !slices.Contains(Names(), name) {
		return nil, fmt.Errorf("dataflow: unknown engine %q (engines: %v)", name, Names())
	}
	var o openSettings
	for _, opt := range opts {
		opt(&o)
	}
	if o.conf == nil {
		o.conf = core.NewConfig()
	}
	if o.rt == nil {
		rt, err := cluster.NewRuntime(defaultSpec, defaultSpec.CoresPerNode)
		if err != nil {
			return nil, fmt.Errorf("dataflow: default runtime: %w", err)
		}
		o.rt = rt
	}
	if o.fs == nil {
		o.fs = dfs.New(o.rt.Spec().Nodes, 64*core.KB, 1)
	}
	var pl *planner.Planner
	var dec *planner.Decision
	if o.plan != nil {
		// Plan before the engine is built: engines resolve planner-
		// controlled keys from the live configuration, but deciding first
		// keeps even construction-time derivations (slots, buffers)
		// consistent with the chosen candidate.
		cp := o.provider
		if cp == nil {
			cp = &planner.SimCost{Base: o.conf}
		}
		pl = &planner.Planner{Provider: cp, Spec: o.rt.Spec(), Parallelisms: o.pars, Compressions: o.comps}
		d, err := pl.PlanFor(name, *o.plan)
		if err != nil {
			return nil, fmt.Errorf("dataflow: planner: %w", err)
		}
		d.Apply(o.conf)
		dec = d
	}
	var s *Session
	switch name {
	case "spark":
		s = NewSession(spark.NewContext(o.conf, o.rt, o.fs))
	case "flink":
		s = NewSession(flink.NewEnv(o.conf, o.rt, o.fs))
	default:
		s = NewSession(mapreduce.NewCluster(o.conf, o.rt, o.fs))
	}
	s.planner = pl
	s.decision = dec
	return s, nil
}
