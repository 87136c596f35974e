// Command bench is the repo benchmark: four paper workloads × three engines,
// end-to-end medians from a timed run plus an outside-in layer trace from a
// separate traced run. BENCHMARK.json at the repo root declares it;
// README.md in this directory is the metric glossary.
//
//	go run ./bench -workload terasort -seed 7            # one timed run
//	go run ./bench                                       # all four workloads
//	go run ./bench -workload terasort -trace 1           # per-layer metrics
//	go run ./bench -repeat-check                         # two sets, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

var procStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       int
	scale       string
	repeatCheck bool
	out         string
}

// run is main without the process exit, so the smoke test can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "one of wordcount, grep, terasort, pagerank (default: all four)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every input generator; the engines see only the generated bytes")
	fs.Float64Var(&o.seconds, "seconds", 24, "how long one run measures")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced run (per-layer metrics) instead of the timed run")
	fs.StringVar(&o.scale, "scale", "full", "input sizes: full, or tiny for the smoke test")
	fs.BoolVar(&o.repeatCheck, "repeat-check", false, "run two full timed sets and compare them against the declared bounds")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for result and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (o.scale != "full" && o.scale != "tiny") {
		fmt.Fprintf(stderr, "bench: bad arguments %v, scale %q\n", fs.Args(), o.scale)
		return 2
	}
	// The collector's pacing is part of what allocs cost a job; pin it so
	// an inherited GOGC cannot move the numbers.
	debug.SetGCPercent(100)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	if o.repeatCheck {
		return repeatCheck(o, names, stdout, stderr)
	}
	code := 0
	start := procStart
	for _, name := range names {
		rec, err := runWorkload(o, name, start)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		rec.print(stdout)
		if rec.Failed > 0 {
			code = 1
		}
		start = time.Now()
	}
	return code
}

// record is one run's result: what the result file stores and what the
// result line is rendered from.
type record struct {
	Workload    string   `json:"workload"`
	Traced      bool     `json:"traced"`
	Scale       string   `json:"scale"`
	Seed        int64    `json:"seed"`
	InputSHA256 string   `json:"input_sha256"`
	Records     int64    `json:"records"`
	InputBytes  int64    `json:"input_bytes"`
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"GOMAXPROCS"`
	GoVersion   string   `json:"go_version"`
	Commit      string   `json:"commit"`
	WarmupS     float64  `json:"warmup_s,omitempty"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Errors      []string `json:"errors,omitempty"`
	// Metrics holds every metric that applies to the workload; Samples the
	// spread behind each timed median.
	Metrics map[string]measured `json:"metrics"`
	Samples map[string]summary  `json:"samples,omitempty"`
	Spans   []*span             `json:"spans,omitempty"`

	line string
}

// runWorkload generates the inputs from the seed and runs one timed or
// traced run of one workload. start is when this run's set-up began.
func runWorkload(o options, name string, start time.Time) (*record, error) {
	sz, ok := sizes[o.scale][name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	inst, err := newInstance(name, o.seed, sz)
	if err != nil {
		return nil, err
	}
	rec := &record{
		Workload: name, Traced: o.trace != 0, Scale: o.scale, Seed: o.seed,
		InputSHA256: inst.inputSHA, Records: inst.records, InputBytes: inst.inputBytes,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	var rep *report
	var tally tally
	defs, file := endToEndDefs(), "result-"+name+".json"
	if o.trace != 0 {
		fixed, err := newInstance(name, o.seed, sizes["fixed"][name])
		if err != nil {
			return nil, err
		}
		repeats := 30
		if o.scale == "tiny" {
			repeats = 3
		}
		res, err := tracedRun(inst, fixed, o.seconds, repeats)
		if err != nil {
			return nil, fmt.Errorf("%s traced run: %w", name, err)
		}
		rep, rec.Spans = res.rep, res.tr.spans
		tally = res.tally
		defs, file = perLayerDefs(), "trace-"+name+".json"
	} else {
		res := timedRun(inst, o.seconds, start)
		rep = res.metrics()
		rec.WarmupS = res.warmupS
		tally = res.tally
		rec.Samples = map[string]summary{}
		for _, e := range engines {
			rec.Samples[e+".job_s"] = summarize(res.jobS[e])
			rec.Samples[e+".allocs_per_rec"] = summarize(res.allocs[e])
		}
	}
	rec.Attempted, rec.Failed, rec.Errors = tally.attempted, tally.failed, tally.errs
	if rec.line, err = rep.line(defs, rec.Attempted, rec.Failed); err != nil {
		return nil, err
	}
	rec.Metrics = map[string]measured{}
	for _, d := range defs {
		if v, ok := rep.vals[d.Name]; ok {
			rec.Metrics[d.Name] = measured{Value: v, Unit: d.Unit}
		}
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return nil, err
	}
	return rec, os.WriteFile(filepath.Join(o.out, file), b, 0o644)
}

// print lists every metric by name with its unit, then the result line the
// driver reads — the last line of standard output.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "# %s seed=%d scale=%s records=%d input_bytes=%d sha256=%.12s\n",
		r.Workload, r.Seed, r.Scale, r.Records, r.InputBytes, r.InputSHA256)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if s, ok := r.Samples[n]; ok {
			fmt.Fprintf(w, "%-40s %14.6g %-10s q1 %.6g q3 %.6g min %.6g max %.6g n %d\n",
				n, m.Value, m.Unit, s.Q1, s.Q3, s.Min, s.Max, s.N)
			continue
		}
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, e := range r.Errors {
		fmt.Fprintln(w, "# FAILED:", e)
	}
	fmt.Fprintln(w, r.line)
}

// commit is the VCS revision the binary was built from, when the toolchain
// stamped one (a checkout without .git has none).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// repeatCheck runs two full timed sets of the same code and prints, per
// workload × end-to-end metric, both values, their relative difference and
// the declared bound. It fails when any difference exceeds its bound.
func repeatCheck(o options, names []string, stdout, stderr io.Writer) int {
	bounds, err := declaredBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var sets [2]map[string]*record
	for i := range sets {
		sets[i] = map[string]*record{}
		for _, name := range names {
			rec, err := runWorkload(o, name, time.Now())
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			sets[i][name] = rec
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-10s %-26s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, name := range names {
		a, b := sets[0][name], sets[1][name]
		for _, d := range endToEndDefs() {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := math.Abs(vb-va) / va
			verdict := ""
			if diff > bounds[d.Name] {
				verdict, code = "  EXCEEDS", 1
			}
			fmt.Fprintf(stdout, "%-10s %-26s %12.6g %12.6g %7.1f%% %5.0f%%%s\n",
				name, d.Name, va, vb, 100*diff, 100*bounds[d.Name], verdict)
		}
		if a.Failed+b.Failed > 0 {
			fmt.Fprintf(stdout, "%-10s %d of %d jobs failed\n", name, a.Failed+b.Failed, a.Attempted+b.Attempted)
			code = 1
		}
	}
	return code
}

// declaredBounds reads each end-to-end metric's regression bound from
// BENCHMARK.json, the one place they are fixed.
func declaredBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("repeat-check runs from the repo root: %w", err)
	}
	var manifest struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &manifest); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range manifest.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
