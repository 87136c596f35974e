// Planviz regenerates the paper's Table I from the unified dataflow API:
// every non-graph workload is defined once and lowered onto each
// registered engine's physical plan (spark, flink and the mapreduce
// baseline), followed by the graph workloads' Pregel plans on spark and
// flink.
//
// With -decide it instead renders the cost-based planner's view: for each
// representative workload the scored candidate table (engine × shuffle
// strategy × codec × parallelism), the chosen configuration and the
// decision trail.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dataflow/backend/flinkexec"
	"repro/internal/dataflow/backend/mrexec"
	"repro/internal/dataflow/backend/sparkexec"
	"repro/internal/dfs"
	"repro/internal/planner"
	"repro/internal/workloads"
)

func main() {
	decide := flag.Bool("decide", false, "print the cost-based planner's chosen config and cost table per workload")
	flag.Parse()

	spec := cluster.Spec{Nodes: 2, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 100, NetMiBps: 100}
	if *decide {
		printDecisions(spec)
		return
	}
	newRT := func() *cluster.Runtime {
		rt, err := cluster.NewRuntime(spec, 4)
		if err != nil {
			log.Fatal(err)
		}
		return rt
	}
	newFS := func() *dfs.FS { return dfs.New(2, 64*core.KB, 1) }

	sparkB := sparkexec.New(core.NewConfig(), newRT(), newFS())
	flinkB := flinkexec.New(core.NewConfig(), newRT(), newFS())
	mrB := mrexec.New(core.NewConfig(), newRT(), newFS())

	// One logical definition per workload, three physical plans each.
	for _, b := range []dataflow.Backend{sparkB, flinkB, mrB} {
		for _, p := range workloads.UnifiedPlans(dataflow.NewSession(b)) {
			printPlan(p)
		}
	}
	// The graph workloads' Pregel plans: GraphX-style supersteps on spark, a
	// delta iteration on flink.
	for _, b := range []dataflow.Backend{sparkB, flinkB} {
		plans, err := workloads.GraphPlans(dataflow.NewSession(b))
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range plans {
			printPlan(p)
		}
	}
}

// printDecisions runs the static planner over one representative spec per
// plan shape and renders each decision: chosen candidate, cost table, trace.
func printDecisions(spec cluster.Spec) {
	pl := &planner.Planner{Provider: &planner.SimCost{Base: core.NewConfig()}, Spec: spec}
	specs := []planner.PlanSpec{
		{Workload: "WordCount", Shape: planner.Aggregate,
			Input: planner.InputStats{Bytes: 768 * 1024}},
		{Workload: "Grep", Shape: planner.Scan,
			Input: planner.InputStats{Bytes: 768 * 1024}},
		{Workload: "TeraSort", Shape: planner.Sort,
			Input: planner.InputStats{Bytes: 1600 * 1024, Records: 16384}},
		{Workload: "KMeans", Shape: planner.Iterate,
			Input: planner.InputStats{Bytes: 256 * 1024, Reused: true}},
	}
	for i, ps := range specs {
		if i > 0 {
			fmt.Println()
		}
		d, err := pl.Plan(ps)
		if err != nil {
			log.Fatalf("plan %s: %v", ps.Workload, err)
		}
		fmt.Printf("== %s (%s, %d KiB) ==\n", ps.Workload, ps.Shape, ps.Input.Bytes/1024)
		fmt.Printf("chosen: %s  est %.3fs\n", d.Chosen, d.Est.Seconds)
		printAligned(d.CostTable())
		for _, ev := range d.Trace.Events() {
			fmt.Printf("  %s\n", ev)
		}
	}
}

// printAligned renders rows with per-column padding, the Report idiom.
func printAligned(rows [][]string) {
	widths := map[int]int{}
	for _, row := range rows {
		for c, cell := range row {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for c, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[c], cell)
		}
		fmt.Println(strings.TrimRight(b.String(), " "))
	}
}

func printPlan(p *core.Plan) {
	if err := p.Validate(); err != nil {
		log.Fatalf("invalid plan %s/%s: %v", p.Framework, p.Workload, err)
	}
	fmt.Println(p.String())
}
