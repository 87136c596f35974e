// Planviz regenerates the paper's Table I from the unified dataflow API:
// every non-graph workload is defined once, and each engine (spark, flink
// and the mapreduce baseline) renders the plan it runs, followed by the
// graph workloads' Pregel plans on spark and flink. Its output is checked in
// as testdata/plans.golden; after a change to what an engine runs,
// regenerate it with
//
//	go run ./cmd/planviz > cmd/planviz/testdata/plans.golden
//
// With -decide it instead renders the cost-based planner's view: for each
// representative workload the scored candidate table (engine × shuffle
// strategy × codec × parallelism), the chosen configuration and the
// decision trail.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/planner"
	"repro/internal/workloads"
)

func main() {
	decide := flag.Bool("decide", false, "print the cost-based planner's chosen config and cost table per workload")
	flag.Parse()

	if *decide {
		printDecisions(cluster.Spec{Nodes: 2, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 100, NetMiBps: 100})
		return
	}
	if err := printTableI(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// printTableI writes one plan per line: the five batch workloads on every
// engine, then the graph workloads on spark and flink.
func printTableI(w io.Writer) error {
	var plans []*core.Plan
	for _, engine := range dataflow.Names() {
		s, err := dataflow.Open(engine)
		if err != nil {
			return err
		}
		ps, err := workloads.UnifiedPlans(s)
		if err != nil {
			return err
		}
		plans = append(plans, ps...)
	}
	// The graph workloads' Pregel plans: GraphX-style supersteps on spark, a
	// delta iteration on flink.
	for _, engine := range []string{"spark", "flink"} {
		s, err := dataflow.Open(engine)
		if err != nil {
			return err
		}
		ps, err := workloads.GraphPlans(s)
		if err != nil {
			return err
		}
		plans = append(plans, ps...)
	}
	for _, p := range plans {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("invalid plan %s/%s: %w", p.Framework, p.Workload, err)
		}
		fmt.Fprintln(w, p)
	}
	return nil
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
