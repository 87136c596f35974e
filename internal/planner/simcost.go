package planner

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// SimCost is the default CostProvider: it asks the calibrated analytic
// model (sim.Estimate) to price each candidate. Base, when set, is the
// session configuration a copy of which each candidate configures
// (Candidate.Configure); nil is the paper defaults.
type SimCost struct {
	Base *core.Config
}

// Estimate implements CostProvider.
func (s SimCost) Estimate(spec PlanSpec, cand Candidate, clusterSpec cluster.Spec) (Cost, error) {
	engine, err := engineKind(cand.Engine)
	if err != nil {
		return Cost{}, err
	}
	conf := core.NewConfig()
	if s.Base != nil {
		base := *s.Base
		conf = &base
	}
	cand.Configure(conf)
	if err := conf.Err(); err != nil {
		return Cost{}, err
	}

	est, err := sim.Estimate(
		sim.PlanStats{Workload: spec.Workload, Shape: estShape(spec.Shape), Iterations: spec.Iterations},
		sim.InputStats{Bytes: spec.Input.Bytes, Records: spec.Input.Records, DistinctFrac: spec.Input.DistinctFrac},
		sim.Params{Spec: clusterSpec, Engine: engine, Conf: conf},
	)
	if err != nil {
		return Cost{}, err
	}
	return Cost{
		Seconds:         est.Seconds,
		ShuffleRawBytes: est.ShuffleRawBytes,
	}, nil
}

func engineKind(name string) (sim.EngineKind, error) {
	switch name {
	case "spark":
		return sim.Spark, nil
	case "flink":
		return sim.Flink, nil
	case "mapreduce":
		return sim.MapReduce, nil
	}
	return 0, fmt.Errorf("planner: unknown engine %q", name)
}

func estShape(s Shape) sim.EstShape {
	switch s {
	case Sort:
		return sim.EstSort
	case Scan:
		return sim.EstScan
	case Iterate:
		return sim.EstIterate
	default:
		return sim.EstAggregate
	}
}
