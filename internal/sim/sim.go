// Package sim is the paper-scale performance model: it replays the two
// engines' execution plans for the paper's cluster sizes (up to 100 nodes)
// and dataset sizes (up to 3.5 TB and 64-billion-edge graphs) on the
// deterministic fluid simulator, regenerating the end-to-end times and
// resource-usage series of every figure and table in the evaluation.
//
// The architectural mechanisms — staged barriers vs pipelined overlap,
// hash vs sort-based combining, loop unrolling vs cyclic iterations, heap
// vs managed memory with their failure modes — are structural here; the
// few numeric constants live in calibrate.go with their provenance.
package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/serde"
	"repro/internal/stats"
)

// EngineKind selects the simulated framework.
type EngineKind int

// Engine kinds.
const (
	Spark EngineKind = iota
	Flink
	// MapReduce is the disk-oriented Hadoop-style baseline: staged map and
	// reduce phases with a full materialization barrier, sort-merge reduce,
	// no caching and one independent job per iteration.
	MapReduce
)

// String implements fmt.Stringer.
func (e EngineKind) String() string {
	switch e {
	case Flink:
		return "flink"
	case MapReduce:
		return "mapreduce"
	default:
		return "spark"
	}
}

// Engines lists the simulated frameworks in report-column order.
func Engines() []EngineKind { return []EngineKind{Spark, Flink, MapReduce} }

// Params configures one simulated execution.
type Params struct {
	Spec   cluster.Spec
	Engine EngineKind
	Conf   *core.Config
	Seed   int64 // trial jitter seed; trials differ like the paper's 5 runs
}

// Result is one simulated execution.
type Result struct {
	Seconds     float64
	LoadSeconds float64 // graph workloads: load-graph phase (Table VII)
	IterSeconds float64 // graph workloads: iteration phase (Table VII)
	Corr        *metrics.Correlation
	Err         error
}

// Failed reports whether the run died (OOM and config failures).
func (r Result) Failed() bool { return r.Err != nil }

// Job is a simulated workload; each workload type implements Run.
type Job interface {
	Name() string
	Run(p Params) Result
}

// run is the shared execution scaffold.
type run struct {
	sim     *des.Simulator
	nodes   []*cluster.SimNode
	p       Params
	tl      *metrics.Timeline
	rng     *rand.Rand
	nameStr string
}

func newRun(p Params, name string) *run {
	if p.Conf == nil {
		p.Conf = core.NewConfig()
	}
	s := des.New()
	return &run{
		sim:     s,
		nodes:   p.Spec.Materialize(s),
		p:       p,
		tl:      metrics.NewTimeline(),
		rng:     rand.New(rand.NewSource(p.Seed*7919 + 17)),
		nameStr: name,
	}
}

// jitter returns a multiplicative noise factor for effective I/O work.
// Flink's pipelined execution suffers more I/O interference (the paper's
// explanation for its higher Tera Sort variance), so its amplitude is
// larger.
func (r *run) jitter() float64 {
	amp := jitterSpark
	if r.p.Engine == Flink {
		amp = jitterFlink
	}
	return 1 + amp*(2*r.rng.Float64()-1)
}

// --- phase builders ------------------------------------------------------

// cpu returns a step consuming coreSec core-seconds on a node with at most
// `cores` parallel threads.
func (r *run) cpu(node int, coreSec, cores float64) des.Step {
	if cores <= 0 {
		cores = float64(r.p.Spec.CoresPerNode)
	}
	res := r.nodes[node].CPU
	return func(done func()) { res.Use(coreSec, cores, cores, done) }
}

// diskRead reads bytes sequentially from the node's disk.
func (r *run) diskRead(node int, bytes float64) des.Step {
	return r.nodes[node].Disk.ReadStep(bytes*r.jitter(), true)
}

// diskWrite writes bytes sequentially.
func (r *run) diskWrite(node int, bytes float64) des.Step {
	return r.nodes[node].Disk.WriteStep(bytes*r.jitter(), true)
}

// net receives bytes on the node's NIC over `streams` parallel fetches.
func (r *run) net(node int, bytes float64, streams int) des.Step {
	return r.nodes[node].NIC.TransferStep(bytes, streams)
}

// hold pauses for fixed seconds (scheduling latencies).
func (r *run) hold(d float64) des.Step { return des.Hold(r.sim, d) }

// span runs body under a named timeline span; body receives a completion
// callback.
func (r *run) span(label string, body func(done func()), done func()) {
	start := r.sim.Now()
	body(func() {
		r.tl.AddSpan(label, start, r.sim.Now())
		if done != nil {
			done()
		}
	})
}

// finish assembles the Result after sim.Run.
func (r *run) finish(err error) Result {
	total := r.sim.Run()
	cpus := make([]*stats.StepSeries, len(r.nodes))
	mems := make([]*stats.StepSeries, len(r.nodes))
	dutil := make([]*stats.StepSeries, len(r.nodes))
	dio := make([]*stats.StepSeries, len(r.nodes))
	nio := make([]*stats.StepSeries, len(r.nodes))
	for i, n := range r.nodes {
		cpus[i] = n.CPU.UtilizationSeries()
		mems[i] = &n.Mem
		dutil[i] = n.Disk.UtilizationSeries()
		dio[i] = n.Disk.RateSeries()
		nio[i] = n.NIC.RateSeries()
	}
	corr := &metrics.Correlation{
		Framework: r.p.Engine.String(),
		Workload:  r.nameStr,
		TotalTime: total,
		Timeline:  r.tl,
		Usage: metrics.ResourceUsage{
			CPUPercent:  stats.MeanOf(cpus).Scale(100),
			MemPercent:  stats.MeanOf(mems).Scale(100),
			DiskUtil:    stats.MeanOf(dutil).Scale(100),
			DiskIOMiBps: stats.MeanOf(dio),
			NetIOMiBps:  stats.MeanOf(nio),
		},
	}
	return Result{Seconds: total, Corr: corr, Err: err}
}

// serdeFactor returns the serialization cost multiplier for the engine's
// configured strategy: Flink always uses TypeInfo; MapReduce always uses
// Writables; Spark uses spark.serializer.
func (r *run) serdeFactor() float64 {
	if r.p.Engine == Flink {
		return serdeFactorTypeInfo
	}
	if r.p.Engine == MapReduce {
		return serdeFactorWritable
	}
	if serde.ParseStyle(r.p.Conf.SparkSerializer) == serde.Kryo {
		return serdeFactorKryo
	}
	return serdeFactorJava
}

// sparkParallelism resolves spark.default.parallelism, falling back to the
// documented 2×cores recommendation when zero.
func sparkParallelism(p Params) int {
	par := p.Conf.SparkDefaultParallelism
	if par == 0 {
		par = p.Spec.TotalCores() * 2
	}
	return par
}

// parallelismPenalty models the ~10% cost of a badly chosen task count the
// paper measures in Section VI-A: too few tasks per core leaves cores idle
// at stage tails; too many pays per-task overhead.
func parallelismPenalty(tasksPerCore float64) float64 {
	switch {
	case tasksPerCore <= 0:
		return 1.15
	case tasksPerCore < 1:
		return 1 + 0.25*(1-tasksPerCore) // under-subscription
	case tasksPerCore <= 3:
		return 1.0 // the sweet spot both frameworks document
	default:
		return 1 + 0.02*(tasksPerCore-3) // per-task overhead
	}
}

// Trials runs a job n times with different seeds and returns the times of
// successful runs, mirroring the paper's 5-run methodology.
func Trials(job Job, p Params, n int) ([]float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		q := p
		q.Seed = p.Seed + int64(i)
		res := job.Run(q)
		if res.Err != nil {
			return nil, fmt.Errorf("sim: %s trial %d: %w", job.Name(), i, res.Err)
		}
		times = append(times, res.Seconds)
	}
	return times, nil
}
