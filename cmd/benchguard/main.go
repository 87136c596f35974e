// Benchguard is the CI bench-regression gate: it compares the current
// BENCH_smoke.json against the previous push's artifact and flags cells
// that worsened beyond a threshold.
//
// Usage:
//
//	benchguard -baseline prev.json -current BENCH_smoke.json -fail ext4
//
// Reports are matched by experiment id, rows by label, and cells by JSON
// field name; only numeric lower-is-better fields compare. A worsening
// past -max-worsen (default 25%) on an experiment named in -fail fails the
// run; on any other experiment it only warns — the real-engine families
// (ext6 and ext10) measure wall-clock on shared CI runners and are too
// noisy to gate on, while ext4's simulated cells are deterministic. A gated
// experiment present in both files that compares no numeric cell fails too:
// tab1, whose report is an operator table with no numeric row, would pass
// any change (cmd/planviz's golden test pins Table I instead).
// A missing or unreadable baseline warns and passes: the first push, an
// expired artifact, or a schema change must not wedge CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// report mirrors benchrunner's JSON shape loosely: rows decode into raw
// maps so the guard compares whatever numeric cells both sides carry,
// independent of which report family they came from.
type report struct {
	ID    string                       `json:"id"`
	Title string                       `json:"title"`
	Rows  []map[string]json.RawMessage `json:"rows"`
}

func load(name string) (map[string]report, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var reps []report
	if err := json.Unmarshal(data, &reps); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	out := make(map[string]report, len(reps))
	for _, r := range reps {
		out[r.ID] = r
	}
	return out, nil
}

// cell extracts a numeric field; ok is false for absent or non-numeric
// values.
func cell(row map[string]json.RawMessage, key string) (float64, bool) {
	raw, present := row[key]
	if !present {
		return 0, false
	}
	var v float64
	if err := json.Unmarshal(raw, &v); err != nil {
		return 0, false
	}
	return v, true
}

func label(row map[string]json.RawMessage) string {
	var s string
	_ = json.Unmarshal(row["label"], &s)
	return s
}

// comparable reports whether a field is a lower-is-better metric cell.
// Std-deviation columns are run noise, and label/note are strings.
func comparable(key string) bool {
	if strings.Contains(key, "_std") {
		return false
	}
	switch key {
	case "label", "note":
		return false
	}
	return true
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the guard: it returns the process exit code — 0 pass, 1 a gated
// family failed, 2 bad usage or an unreadable current file.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	flags.SetOutput(stderr)
	baseline := flags.String("baseline", "", "previous BENCH_smoke.json (missing = warn and pass)")
	current := flags.String("current", "BENCH_smoke.json", "current BENCH_smoke.json")
	maxWorsen := flags.Float64("max-worsen", 0.25, "tolerated fractional worsening per cell")
	failIDs := flags.String("fail", "ext4", "comma-separated experiment ids whose regressions fail (others warn)")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	failOn := map[string]bool{}
	for _, id := range strings.Split(*failIDs, ",") {
		if id = strings.TrimSpace(id); id != "" {
			failOn[id] = true
		}
	}

	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(stdout, "benchguard: no usable baseline (%v); skipping regression check\n", err)
		return 0
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintf(stderr, "benchguard: %v\n", err)
		return 2
	}

	failures := 0
	warnings := 0
	for id, curRep := range cur {
		baseRep, ok := base[id]
		if !ok {
			continue // new experiment: nothing to compare yet
		}
		baseRows := make(map[string]map[string]json.RawMessage, len(baseRep.Rows))
		for _, row := range baseRep.Rows {
			baseRows[label(row)] = row
		}
		compared := 0
		for _, row := range curRep.Rows {
			baseRow, ok := baseRows[label(row)]
			if !ok {
				continue
			}
			for key := range row {
				if !comparable(key) {
					continue
				}
				curV, ok1 := cell(row, key)
				baseV, ok2 := cell(baseRow, key)
				if !ok1 || !ok2 || baseV <= 0 {
					continue
				}
				compared++
				worsen := curV/baseV - 1
				if worsen <= *maxWorsen {
					continue
				}
				verdict := "WARN"
				if failOn[id] {
					verdict = "FAIL"
					failures++
				} else {
					warnings++
				}
				fmt.Fprintf(stdout, "benchguard %s: %s %q %s: %.4g -> %.4g (+%.0f%%, limit +%.0f%%)\n",
					verdict, id, label(row), key, baseV, curV, worsen*100, *maxWorsen*100)
			}
		}
		if failOn[id] && compared == 0 {
			// A gate that compares nothing passes whatever happens.
			failures++
			fmt.Fprintf(stdout, "benchguard FAIL: %s is gated but has no numeric cell in both files\n", id)
		}
	}
	if failures == 0 && warnings == 0 {
		fmt.Fprintln(stdout, "benchguard: no regressions past the threshold")
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "benchguard: %d gated regression(s)\n", failures)
		return 1
	}
	return 0
}
