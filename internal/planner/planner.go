package planner

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
)

// Shape classifies a logical plan by the physical work its shuffle does —
// the property the cost models key on, mirroring the paper's workload
// taxonomy (Table I).
type Shape int

// Plan shapes.
const (
	// Aggregate is map + keyed reduction with a combiner (Word Count).
	Aggregate Shape = iota
	// Sort is a total-order repartition (Tera Sort).
	Sort
	// Scan is a shuffle-free filter/count pipeline (Grep).
	Scan
	// Iterate is an iterative refinement loop (K-Means).
	Iterate
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case Sort:
		return "sort"
	case Scan:
		return "scan"
	case Iterate:
		return "iterate"
	default:
		return "aggregate"
	}
}

// InputStats describes one input as known before execution: sizes from the
// DFS or the generator, record counts when the format fixes them (TeraGen's
// 100-byte records), and whether downstream actions reuse the dataset.
type InputStats struct {
	Bytes   int64
	Records int64 // 0 = unknown; models derive from Bytes
	Reused  bool  // consumed by more than one action → cache placement pays
	// DistinctFrac is the fraction of records with a distinct key (combiner
	// selectivity); 0 = unknown, and the model assumes natural-language
	// text. Statistics systems rarely know it up front; a caller that does
	// sets it (make calibrate's WC-unique rows plan with 1).
	DistinctFrac float64
}

// PlanSpec is the planner's view of one logical plan: enough structure to
// query a CostProvider without holding the typed dataflow graph itself.
type PlanSpec struct {
	Workload   string
	Shape      Shape
	Input      InputStats
	Iterations int // Iterate shapes; 0 otherwise
}

// Candidate is one physical configuration under consideration.
type Candidate struct {
	Engine      string // "spark", "flink" or "mapreduce"
	Strategy    string // shuffle.strategy: "hash" or "sort"
	Compress    string // shuffle.compress: "none" or "lz"
	Parallelism int    // reduce-side task count
	Cache       bool   // cache the reused input (engines without persistence ignore it)
}

// Configure writes the candidate's settings into conf: its shuffle strategy
// and codec, and its parallelism as every engine's reduce-side task count.
// The engine is not a setting; the caller opens the candidate's engine.
func (c Candidate) Configure(conf *core.Config) {
	conf.Set(core.ShuffleStrategy, c.Strategy).
		Set(core.ShuffleCompress, c.Compress).
		SetInt(core.SparkDefaultParallelism, c.Parallelism).
		SetInt(core.FlinkDefaultParallelism, c.Parallelism).
		SetInt(core.MRReduceTasks, c.Parallelism)
}

// String renders the candidate compactly for traces and cost tables.
func (c Candidate) String() string {
	s := fmt.Sprintf("%s/%s/p=%d", c.Engine, c.Strategy, c.Parallelism)
	if c.Compress != "" && c.Compress != "none" {
		s += "/" + c.Compress
	}
	if c.Cache {
		s += "/cached"
	}
	return s
}

// Cost is a CostProvider's prediction for one candidate: end-to-end
// seconds plus the shuffle volume the cost table shows.
type Cost struct {
	Seconds         float64
	ShuffleRawBytes int64 // serialized shuffle volume before compression
}

// CostProvider scores one candidate configuration for one plan on one
// cluster. The calibrated simulator provides the default implementation
// (SimCost); tests substitute table-driven fakes.
type CostProvider interface {
	Estimate(spec PlanSpec, cand Candidate, clusterSpec cluster.Spec) (Cost, error)
}

// Scored is one row of a decision's cost table.
type Scored struct {
	Cand Candidate
	Cost Cost
	Err  error // estimation failure (candidate is skipped, kept for the table)
}

// Planner enumerates candidate physical configurations and scores them
// through a CostProvider. The zero value is not usable; fill Provider and
// Spec.
type Planner struct {
	Provider CostProvider
	Spec     cluster.Spec
	// Engines are the candidate engines; nil enumerates all three.
	Engines []string
	// Parallelisms are the candidate reduce-side task counts; nil derives
	// {cores/2, cores, 2×cores} from Spec (cores = total slots).
	Parallelisms []int
	// Compressions are the candidate shuffle codecs; nil tries every value
	// shuffle.compress accepts.
	Compressions []string
}

func (p *Planner) engines() []string {
	if len(p.Engines) > 0 {
		return p.Engines
	}
	return []string{"spark", "flink", "mapreduce"}
}

func (p *Planner) parallelisms() []int {
	if len(p.Parallelisms) > 0 {
		return p.Parallelisms
	}
	cores := p.Spec.TotalCores()
	if cores <= 0 {
		cores = 8
	}
	out := []int{cores / 2, cores, cores * 2}
	if out[0] < 1 {
		out[0] = 1
	}
	return out
}

func (p *Planner) compressions() []string {
	if len(p.Compressions) > 0 {
		return p.Compressions
	}
	return core.Legal(core.ShuffleCompress)
}

// Plan scores every candidate, each engine under every strategy
// shuffle.strategy accepts, and returns the decision: the cheapest
// candidate, the full cost table (cheapest first) and a Trace seeded with
// the estimation events. It fails only if every candidate fails to
// estimate.
func (p *Planner) Plan(spec PlanSpec) (*Decision, error) {
	var table []Scored
	for _, engine := range p.engines() {
		for _, strat := range core.Legal(core.ShuffleStrategy) {
			for _, comp := range p.compressions() {
				for _, par := range p.parallelisms() {
					cand := Candidate{
						Engine:      engine,
						Strategy:    strat,
						Compress:    comp,
						Parallelism: par,
						Cache:       spec.Input.Reused && engine == "spark",
					}
					cost, err := p.Provider.Estimate(spec, cand, p.Spec)
					table = append(table, Scored{Cand: cand, Cost: cost, Err: err})
				}
			}
		}
	}
	sort.SliceStable(table, func(i, j int) bool {
		if (table[i].Err == nil) != (table[j].Err == nil) {
			return table[i].Err == nil
		}
		return table[i].Cost.Seconds < table[j].Cost.Seconds
	})
	if len(table) == 0 || table[0].Err != nil {
		return nil, fmt.Errorf("planner: no feasible candidate for %s", spec.Workload)
	}
	d := &Decision{
		Spec:   spec,
		Chosen: table[0].Cand,
		Est:    table[0].Cost,
		Table:  table,
		Trace:  &Trace{},
	}
	d.Trace.add(EvEstimate, fmt.Sprintf("%s: scored %d candidates, chose %s (est %.3fs)",
		spec.Workload, len(table), d.Chosen, d.Est.Seconds))
	return d, nil
}

// Decision is the planner's output: the chosen physical configuration, its
// predicted cost, the scored alternatives and the decision trail.
type Decision struct {
	Spec   PlanSpec
	Chosen Candidate
	Est    Cost
	Table  []Scored
	Trace  *Trace
}

// CostTable renders the scored candidates as rows (candidate, est seconds,
// shuffle MiB) for planviz's -decide mode.
func (d *Decision) CostTable() [][]string {
	rows := [][]string{{"candidate", "est (s)", "shuffle (MiB)"}}
	for _, s := range d.Table {
		if s.Err != nil {
			rows = append(rows, []string{s.Cand.String(), "error: " + s.Err.Error(), "-"})
			continue
		}
		rows = append(rows, []string{
			s.Cand.String(),
			fmt.Sprintf("%.3f", s.Cost.Seconds),
			fmt.Sprintf("%.2f", float64(s.Cost.ShuffleRawBytes)/(1<<20)),
		})
	}
	return rows
}
