package dataflow

import (
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/engine/flink"
	"repro/internal/engine/mapreduce"
	"repro/internal/engine/spark"
	"repro/internal/metrics"
)

// Kind identifies the execution model a Session lowers onto.
type Kind int

// Engine kinds.
const (
	// Spark is the staged, RDD-caching engine.
	Spark Kind = iota
	// Flink is the pipelined engine with native iterations.
	Flink
	// MapReduce is the disk-oriented two-phase baseline.
	MapReduce
)

// String returns the engine name of the kind, the name Open takes.
func (k Kind) String() string {
	switch k {
	case Spark:
		return "spark"
	case Flink:
		return "flink"
	default:
		return "mapreduce"
	}
}

// Names returns the engine names Open accepts, in paper order: spark,
// flink, then the mapreduce baseline.
func Names() []string { return []string{"spark", "flink", "mapreduce"} }

// engine is what the three engine entry points (*spark.Context, *flink.Env,
// *mapreduce.Cluster) have in common: the shared substrate and the
// observability surface.
type engine interface {
	Conf() *core.Config
	FS() *dfs.FS
	Metrics() *metrics.JobMetrics
	Timeline() *metrics.Timeline
}

// Session owns one engine-bound execution: the engine handle, the logical
// node ids and the memoized lowered representations, so that a Dataset
// shared by several actions lowers exactly once (Spark's cache reuse depends
// on that; Flink and MapReduce re-execute the shared pipeline per action).
// A Session is single-goroutine like the engines' driver APIs.
type Session struct {
	kind   Kind
	h      engine
	nextID int
	reps   map[int]any
}

// NewSession binds an engine handle the caller built.
func NewSession[H *spark.Context | *flink.Env | *mapreduce.Cluster](h H) *Session {
	s := &Session{reps: map[int]any{}}
	switch e := any(h).(type) {
	case *spark.Context:
		s.kind, s.h = Spark, e
	case *flink.Env:
		s.kind, s.h = Flink, e
	default:
		s.kind, s.h = MapReduce, e.(*mapreduce.Cluster)
	}
	return s
}

// Kind returns the engine kind the session lowers onto.
func (s *Session) Kind() Kind { return s.kind }

// Name returns the engine's name.
func (s *Session) Name() string { return s.kind.String() }

// Handle returns the engine entry point (*spark.Context, *flink.Env or
// *mapreduce.Cluster), for subsystems that continue a pipeline with
// engine-native operators.
func (s *Session) Handle() any { return s.h }

// FS returns the engine's filesystem.
func (s *Session) FS() *dfs.FS { return s.h.FS() }

// Metrics returns the engine's job counters.
func (s *Session) Metrics() *metrics.JobMetrics { return s.h.Metrics() }

// Timeline returns the engine's operator timeline.
func (s *Session) Timeline() *metrics.Timeline { return s.h.Timeline() }

// driverRecords charges n records the driver goroutine handled itself to
// metrics.JobMetrics.DriverRecords — one add per call site, never per record.
func (s *Session) driverRecords(n int) { s.Metrics().DriverRecords.Add(int64(n)) }

// batchWidth resolves the execution batch width: exec.batch.size when
// positive, DefaultExecBatchSize otherwise.
func (s *Session) batchWidth() int { return core.ExecBatch(s.h.Conf()) }

// newNode allocates a logical plan node.
func (s *Session) newNode(kind core.OpKind, label string, inputs ...*Node) *Node {
	s.nextID++
	return &Node{ID: s.nextID, Kind: kind, Label: label, Inputs: inputs}
}

// Node is one operator of the engine-neutral logical plan. Labels are the
// dataflow API names ("TextSource", "FlatMap", "ReduceByKey", …); a fused
// narrow chain renders as its operators' labels.
type Node struct {
	ID     int
	Kind   core.OpKind
	Label  string
	Inputs []*Node
	// Cached marks the persistence hint; only Spark's lowering honors it.
	Cached bool
}
