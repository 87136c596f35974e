// Benchrunner regenerates the paper's tables and figures.
//
// Usage:
//
//	benchrunner -run fig1          # one experiment
//	benchrunner -run tab1,ext4     # several, comma-separated
//	benchrunner -run all           # everything, in paper order
//	benchrunner -run ext3 -engines mapreduce   # one engine's numbers only
//	benchrunner -list              # available experiment ids
//	benchrunner -run all -md out.md  # write an EXPERIMENTS-style markdown report
//	benchrunner -run all -json out.json  # machine-readable reports (CI artifact)
//	benchrunner -calibrate         # ext10 size sweep, measured vs sim.Estimate (make calibrate)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/experiments"
)

func main() {
	runID := flag.String("run", "", "experiment ids (fig1..fig17, tab1..tab7, ext1..ext10), comma-separated, or 'all'")
	list := flag.Bool("list", false, "list experiment ids")
	calibrate := flag.Bool("calibrate", false, "run the ext10 size sweep and print measured vs sim.Estimate with residuals")
	md := flag.String("md", "", "also write a markdown report to this file")
	jsonOut := flag.String("json", "", "also write the reports as JSON to this file")
	engines := flag.String("engines", "",
		fmt.Sprintf("comma-separated engine filter (engines: %s); default all",
			strings.Join(dataflow.Names(), ",")))
	flag.Parse()

	if *engines != "" {
		// Restrict the experiment runners so one engine's numbers can be
		// regenerated without the full three-way matrix. The engine names
		// are dataflow.Names(); SetEngineFilter validates.
		var names []string
		for _, name := range strings.Split(*engines, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
		if len(names) == 0 {
			fmt.Fprintf(os.Stderr, "-engines %q names no engine (registered: %s)\n",
				*engines, strings.Join(dataflow.Names(), ", "))
			os.Exit(2)
		}
		if err := experiments.SetEngineFilter(names); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if *calibrate {
		if err := experiments.Calibrate(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *list {
		for _, id := range experiments.IDs() {
			r, _ := experiments.Get(id)
			fmt.Printf("%-6s %s\n", id, r.Title)
		}
		return
	}
	if *runID == "" {
		fmt.Fprintln(os.Stderr, "usage: benchrunner -run <id>|all [-engines spark,flink,mapreduce] [-md report.md] | -list")
		os.Exit(2)
	}

	var ids []string
	if *runID == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*runID, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	var mdOut strings.Builder
	var reps []*experiments.Report
	for _, id := range ids {
		r, ok := experiments.Get(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		rep, err := r.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		reps = append(reps, rep)
		out := rep.Render()
		fmt.Println(out)
		if *md != "" {
			fmt.Fprintf(&mdOut, "### %s — %s\n\n```\n%s```\n\n", rep.ID, rep.Title, out)
		}
	}
	if *md != "" {
		if err := os.WriteFile(*md, []byte(mdOut.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *md, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *md)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, reps); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}
