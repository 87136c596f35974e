// Benchpair compares a base commit with the working tree on workloads of
// the repo benchmark, the way a performance claim must be judged: the
// machine's speed drifts by 10–30 % over minutes, so single runs of two
// commits are not comparable — alternating pairs are.
//
// Usage (make bench-pair BASE=<ref> WORKLOAD=<name>):
//
//	benchpair -base HEAD~1 -workload wordcount
//	benchpair -base HEAD~1 -workload terasort,grep
//	benchpair -base HEAD~1 -workload all
//
// -workload takes one name, a comma-separated list, or "all" for every
// workload BENCHMARK.json declares — a claim's table and its no-regression
// tables from one command, one table per workload. It exports BASE into a
// temporary directory (git archive BASE | tar -x: nothing is written under
// .git, and a crashed run leaves no worktree behind), builds ./bench there
// and in the working tree, and runs, per workload, ten pairs of
// BENCHMARK.json's run_seconds each, the two sides of a pair on the same seed
// and the side that goes first alternating: the protocol is fixed so that
// two tables are always comparable. Result files go to the temporary
// directory, never into bench/out. Per end-to-end metric it prints each side's median and
// quartiles over the runs, how many pairs the working tree won, and whether
// the medians differ by more than the base's own quartile distance — the
// rule BENCHMARK.json's driver applies to a claimed gain. Under each table
// come the working tree's rows as JSON lines in the schema of
// bench/trajectory.jsonl (commit, change, workload, metric, unit, median, q1,
// q3, n, nproc), for the next benchmark change to append there; "change" is
// the subject line of HEAD. The exit status is non-zero only when a run
// failed, never because of what was measured.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// result is the benchmark's last line of standard output.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// pairs is the number of base/head pairs a comparison runs.
const pairs = 10

func main() {
	base := flag.String("base", "", "git ref of the commit to compare the working tree against")
	workload := flag.String("workload", "", "benchmark workloads: a name, a comma-separated list, or all")
	seed := flag.Int("seed", 101, "seed of the first pair; pair i runs both sides on seed+i")
	flag.Parse()
	if *base == "" || *workload == "" {
		fmt.Fprintln(os.Stderr, "usage: benchpair -base <ref> -workload <name>[,<name>...]|all [-seed 101]")
		os.Exit(2)
	}
	if err := run(*base, *workload, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

// declared reads from the working tree's BENCHMARK.json how long one run
// measures and which workloads exist.
func declared() (seconds int, workloads []string, err error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return 0, nil, err
	}
	var decl struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return 0, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if decl.RunSeconds <= 0 {
		return 0, nil, fmt.Errorf("BENCHMARK.json: run_seconds = %d", decl.RunSeconds)
	}
	for _, w := range decl.Workloads {
		workloads = append(workloads, w.Name)
	}
	return decl.RunSeconds, workloads, nil
}

// pick resolves the -workload argument against the declared workloads: "all"
// is every one of them, anything else a comma-separated list of their names.
// A name the benchmark does not declare is an error here, before the first
// ten minutes of runs and not after them.
func pick(arg string, declared []string) ([]string, error) {
	if arg == "all" {
		return declared, nil
	}
	names := strings.Split(arg, ",")
	for _, name := range names {
		if !slices.Contains(declared, name) {
			return nil, fmt.Errorf("workload %q is not one of %s", name, strings.Join(declared, ", "))
		}
	}
	return names, nil
}

func run(base, workload string, seed int) error {
	seconds, all, err := declared()
	if err != nil {
		return err
	}
	workloads, err := pick(workload, all)
	if err != nil {
		return err
	}
	// The working tree as the trajectory names it: HEAD, marked when the
	// tree has changes HEAD does not.
	commit, err := gitOutput("describe", "--always", "--dirty", "--abbrev=12")
	if err != nil {
		return err
	}
	change, err := gitOutput("log", "-1", "--format=%s")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tree := filepath.Join(tmp, "base")
	if err := export(base, tree); err != nil {
		return fmt.Errorf("export %s: %w", base, err)
	}

	bins := map[string]string{"base": filepath.Join(tmp, "bench-base"), "head": filepath.Join(tmp, "bench-head")}
	for side, dir := range map[string]string{"base": tree, "head": ""} {
		if err := command(dir, "go", "build", "-o", bins[side], "./bench").Run(); err != nil {
			return fmt.Errorf("build ./bench at %s: %w", side, err)
		}
	}

	for _, workload := range workloads {
		if err := compare(bins, tmp, workload, seed, seconds, base, commit, change); err != nil {
			return err
		}
	}
	return nil
}

// compare runs the ten pairs of one workload and prints its table, then the
// working tree's side of it as trajectory lines.
func compare(bins map[string]string, tmp, workload string, seed, seconds int, base, commit, change string) error {
	values := map[string]map[string][]float64{"base": {}, "head": {}} // side → metric → one value per pair
	units := map[string]string{}
	for i := 0; i < pairs; i++ {
		order := []string{"base", "head"}
		if i%2 == 1 {
			order = []string{"head", "base"}
		}
		for _, side := range order {
			cmd := command("", bins[side], "-workload", workload, "-seed", fmt.Sprint(seed+i),
				"-seconds", fmt.Sprint(seconds), "-trace", "0", "-out", filepath.Join(tmp, "out-"+side))
			var out bytes.Buffer
			cmd.Stdout = &out
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s pair %d, %s: %w", workload, i+1, side, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var r result
			if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
				return fmt.Errorf("%s pair %d, %s: result line: %w", workload, i+1, side, err)
			}
			if !r.Correct || r.Failed > 0 {
				return fmt.Errorf("%s pair %d, %s: %d jobs failed", workload, i+1, side, r.Failed)
			}
			for name, m := range r.Metrics {
				values[side][name] = append(values[side][name], m.Value)
				units[name] = m.Unit
			}
		}
		fmt.Fprintf(os.Stderr, "%s pair %d/%d done (seed %d, %s first)\n", workload, i+1, pairs, seed+i, order[0])
	}

	fmt.Printf("%s, %d pairs × %d s, seeds %d–%d, base %s; every metric is lower-is-better\n",
		workload, pairs, seconds, seed, seed+pairs-1, base)
	printTable(os.Stdout, values["base"], values["head"], units)
	printTrajectory(os.Stdout, commit, change, workload, values["head"], units)
	return nil
}

// printTrajectory writes one line per metric of one side's runs in the
// schema — and the spacing and precision — of bench/trajectory.jsonl.
func printTrajectory(w io.Writer, commit, change, workload string, runs map[string][]float64, units map[string]string) {
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	quote := func(s string) string {
		b, _ := json.Marshal(s) // a string always marshals
		return string(b)
	}
	for _, name := range names {
		q := quartiles(runs[name])
		fmt.Fprintf(w, `{"commit": %s, "change": %s, "workload": %s, "metric": %s, "unit": %s, "median": %.6g, "q1": %.6g, "q3": %.6g, "n": %d, "nproc": %d}`+"\n",
			quote(commit), quote(change), quote(workload), quote(name), quote(units[name]),
			q[1], q[0], q[2], len(runs[name]), runtime.NumCPU())
	}
}

// printTable writes one row per metric: each side's median and quartiles,
// the pairs head won, and whether the medians are further apart than base's
// quartile distance. base and head map a metric to one value per pair.
func printTable(w io.Writer, base, head map[string][]float64, units map[string]string) {
	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-26s %-11s %30s %30s %9s  %s\n", "metric", "unit", "base median [q1, q3]", "head median [q1, q3]", "head wins", "medians apart by more than base q3−q1")
	for _, name := range names {
		b, h := base[name], head[name]
		if len(b) != len(h) {
			// One commit's bench does not report this metric (every run
			// of a side prints the same names).
			side := "base"
			if len(b) < len(h) {
				side = "head"
			}
			fmt.Fprintf(w, "%-26s %-11s only on %s\n", name, units[name], side)
			continue
		}
		wins := 0
		for i := range b {
			if h[i] < b[i] {
				wins++
			}
		}
		bq, hq := quartiles(b), quartiles(h)
		apart := "no"
		if math.Abs(bq[1]-hq[1]) > bq[2]-bq[0] {
			apart = "yes"
		}
		fmt.Fprintf(w, "%-26s %-11s %30s %30s %6d/%-2d  %s\n", name, units[name],
			fmt.Sprintf("%.4g [%.4g, %.4g]", bq[1], bq[0], bq[2]),
			fmt.Sprintf("%.4g [%.4g, %.4g]", hq[1], hq[0], hq[2]), wins, len(b), apart)
	}
}

// export writes the tree of ref into dir as git archive | tar -x does.
func export(ref, dir string) error {
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return err
	}
	archive := command("", "git", "archive", ref)
	archive.Stdout = w
	untar := command(dir, "tar", "-x")
	untar.Stdin = r
	if err := untar.Start(); err != nil {
		r.Close()
		w.Close()
		return err
	}
	archived := archive.Run()
	// The children hold their own ends: closing ours lets tar see the end
	// of the archive.
	w.Close()
	r.Close()
	untarred := untar.Wait()
	if archived != nil {
		return archived
	}
	return untarred
}

// gitOutput runs git in the working tree and returns what it printed, trimmed.
func gitOutput(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// command runs in dir ("" = the working tree) with its output on stderr,
// so standard output carries the table only.
func command(dir, name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	return cmd
}

// quartiles returns q1, the median and q3, interpolating between ranks as
// the benchmark's own summaries do.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	for i, p := range []float64{0.25, 0.5, 0.75} {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		q[i] = s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return q
}
