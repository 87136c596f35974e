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
)

// Option configures Open. The zero set of options is valid: Open builds
// paper-default substrate pieces (config, a small two-node runtime, a DFS
// over its nodes) for whatever the caller leaves out.
type Option func(*openSettings)

type openSettings struct {
	conf *core.Config
	rt   *cluster.Runtime
	fs   *dfs.FS
}

// WithConfig supplies the engine configuration. Omitted: core.NewConfig()
// paper defaults. The engine resolves its parallelism and shuffle settings
// from it once, in Open; a Set on it afterwards does not reach the session.
// A planned configuration is applied before Open (planner.Decision.Apply).
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
	switch name {
	case "spark":
		return NewSession(spark.NewContext(o.conf, o.rt, o.fs)), nil
	case "flink":
		return NewSession(flink.NewEnv(o.conf, o.rt, o.fs)), nil
	default:
		return NewSession(mapreduce.NewCluster(o.conf, o.rt, o.fs)), nil
	}
}
