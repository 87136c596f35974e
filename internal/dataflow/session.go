package dataflow

import (
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/metrics"
	"repro/internal/planner"
)

// Kind identifies the execution model behind a Backend.
type Kind int

// Backend kinds.
const (
	// Spark is the staged, RDD-caching engine.
	Spark Kind = iota
	// Flink is the pipelined engine with native iterations.
	Flink
	// MapReduce is the disk-oriented two-phase baseline.
	MapReduce
)

// String returns the registry name of the kind.
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

// Backend is one engine seen through the dataflow layer: enough identity to
// dispatch typed lowering (Kind, Handle), the shared observability surface
// (FS, Metrics, Timeline), and the engine's plan lowering for Table I.
type Backend interface {
	// Kind selects the lowering rules.
	Kind() Kind
	// Name is the registry name ("spark", "flink", "mapreduce").
	Name() string
	// FS is the engine's distributed filesystem.
	FS() *dfs.FS
	// Metrics is the engine's job counter set.
	Metrics() *metrics.JobMetrics
	// Timeline is the engine's operator timeline.
	Timeline() *metrics.Timeline
	// Handle is the engine entry point (*spark.Context, *flink.Env or
	// *mapreduce.Cluster); the typed lowering closures assert it.
	Handle() any
	// LowerPlan renders a logical plan as the engine's physical plan
	// without executing anything — chains, stage cuts and iteration
	// operators follow the engine's planner idiom.
	LowerPlan(lp *Logical) *core.Plan
}

// Factory builds a Backend over a shared substrate, the signature every
// engine entry point already has.
type Factory func(conf *core.Config, rt *cluster.Runtime, fs *dfs.FS) Backend

var (
	regMu    sync.Mutex
	regOrder []string
	registry = map[string]Factory{}
)

// Register adds a backend factory under a name. The backend adapter
// packages call it from init; importing an adapter makes its engine
// available to Open and Names.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; !dup {
		regOrder = append(regOrder, name)
	}
	registry[name] = f
}

// Names returns the registered backend names in paper order (spark,
// flink, then the mapreduce baseline); any other engines follow in
// registration order. Registration itself happens in package-init order,
// which Go derives from import paths — not a stable presentation order.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := append([]string{}, regOrder...)
	rank := func(name string) int {
		switch name {
		case "spark":
			return 0
		case "flink":
			return 1
		case "mapreduce":
			return 2
		default:
			return 3
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return rank(out[i]) < rank(out[j]) })
	return out
}

// Lookup returns the factory for a registered name.
func Lookup(name string) (Factory, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	f, ok := registry[name]
	return f, ok
}

// Session owns one engine-bound execution: the backend, the logical node
// ids and the memoized lowered representations, so that a Dataset shared
// by several actions lowers exactly once (Spark's cache reuse depends on
// that; Flink and MapReduce re-execute the shared pipeline per action).
// A Session is single-goroutine like the engines' driver APIs.
type Session struct {
	b      Backend
	nextID int
	reps   map[int]any

	// Planner state, set by Open when WithPlanner is used.
	conf     *core.Config
	planner  *planner.Planner
	decision *planner.Decision
}

// NewSession binds a backend.
func NewSession(b Backend) *Session {
	return &Session{b: b, reps: map[int]any{}}
}

// Backend returns the bound backend.
func (s *Session) Backend() Backend { return s.b }

// Name returns the backend's registry name.
func (s *Session) Name() string { return s.b.Name() }

// FS returns the backend's filesystem.
func (s *Session) FS() *dfs.FS { return s.b.FS() }

// Metrics returns the backend's job counters.
func (s *Session) Metrics() *metrics.JobMetrics { return s.b.Metrics() }

// Timeline returns the backend's operator timeline.
func (s *Session) Timeline() *metrics.Timeline { return s.b.Timeline() }

// PlannerDecision returns the decision made by WithPlanner, or nil when the
// session was opened without a planner.
func (s *Session) PlannerDecision() *planner.Decision { return s.decision }

// StartAdaptive attaches the runtime re-planner to the session: every stage
// boundary the engine reports is compared against the static decision's
// estimates, and a divergence beyond planner.replan.ratio re-plans the
// remaining work into the live configuration (explicit user keys still
// win). Returns nil when the session was opened without WithPlanner; detach
// with Monitor.Detach when done.
func (s *Session) StartAdaptive() *planner.Monitor {
	if s.decision == nil || s.planner == nil {
		return nil
	}
	return planner.NewMonitor(s.planner, s.decision, s.conf, s.b.Metrics())
}

func (s *Session) kind() Kind { return s.b.Kind() }

// driverRecords charges n records the driver goroutine handled itself to
// metrics.JobMetrics.DriverRecords — one add per call site, never per record.
func (s *Session) driverRecords(n int) { s.Metrics().DriverRecords.Add(int64(n)) }

// handle returns the engine entry point for typed lowering.
func (s *Session) handle() any { return s.b.Handle() }

// newNode allocates a logical plan node.
func (s *Session) newNode(kind core.OpKind, label string, inputs ...*Node) *Node {
	s.nextID++
	return &Node{ID: s.nextID, Kind: kind, Label: label, Inputs: inputs}
}

// Node is one operator of the engine-neutral logical plan. Labels are the
// dataflow API names ("TextSource", "FlatMap", "ReduceByKey", …); each
// backend's LowerPlan maps them onto its own operator vocabulary.
type Node struct {
	ID     int
	Kind   core.OpKind
	Label  string
	Inputs []*Node
	// Cached marks the persistence hint; only Spark's lowering honors it.
	Cached bool
	// Combinable marks a keyed reduction eligible for a map-side combiner
	// (Spark's mapSideCombine, Flink's GroupCombine, Hadoop's Combine).
	Combinable bool
	// Iterations is set on iteration nodes.
	Iterations int
}

// Logical is the unit handed to Backend.LowerPlan: the logical sinks of
// one workload plus the neutral action that terminates them.
type Logical struct {
	Workload string
	Action   string
	Sinks    []*Node
}

// Neutral action names, mapped to engine sink labels by each backend.
const (
	ActionSaveText    = "save-text"
	ActionSaveRecords = "save-records"
	ActionCount       = "count"
	ActionCollect     = "collect"
	ActionIterate     = "iterate"
)

// PlanOf lowers the logical plan rooted at sinks onto the session's engine
// and returns its physical plan — one Table I row, producible before (or
// without) ever running the pipeline.
func PlanOf(s *Session, workload, action string, sinks ...*Node) *core.Plan {
	return s.b.LowerPlan(&Logical{Workload: workload, Action: action, Sinks: sinks})
}
