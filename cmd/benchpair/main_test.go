package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// A metric that only one commit's bench reports gets a row saying so; the
// others are compared as usual.
func TestPrintTableMetricOnOneSide(t *testing.T) {
	base := map[string][]float64{"a.job_s": {2, 2, 2}, "old.job_s": {1, 1, 1}}
	head := map[string][]float64{"a.job_s": {1, 1, 3}, "new.job_s": {1, 1, 1}}
	units := map[string]string{"a.job_s": "s", "old.job_s": "s", "new.job_s": "s"}
	var out strings.Builder
	printTable(&out, base, head, units)
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want header + 3:\n%s", len(rows), out.String())
	}
	for i, want := range []string{"2/3", "only on head", "only on base"} {
		if !strings.Contains(rows[i+1], want) {
			t.Errorf("row %q: want %q", rows[i+1], want)
		}
	}
}

// -workload takes one name, a list, or "all"; an undeclared name is refused
// before anything runs.
func TestPickWorkloads(t *testing.T) {
	declared := []string{"wordcount", "grep", "terasort"}
	for arg, want := range map[string]string{
		"grep":           "grep",
		"terasort,grep":  "terasort,grep",
		"all":            "wordcount,grep,terasort",
		"pagerank":       "",
		"grep,,terasort": "",
		"":               "",
	} {
		got, err := pick(arg, declared)
		if (err != nil) != (want == "") || strings.Join(got, ",") != want {
			t.Errorf("pick(%q) = %v, %v; want %q", arg, got, err, want)
		}
	}
}

// The trajectory lines are bench/trajectory.jsonl's: the same keys in the
// same order, one line per metric, quartiles as the table computes them, and
// text that survives JSON (a commit subject quotes and uses non-ASCII).
func TestPrintTrajectoryMatchesTheFile(t *testing.T) {
	runs := map[string][]float64{"spark.job_s": {0.4, 0.1, 0.3, 0.2, 0.5}, "setup_s": {2, 2, 2, 2, 2}}
	units := map[string]string{"spark.job_s": "s", "setup_s": "s"}
	var out strings.Builder
	printTrajectory(&out, "0123456789ab-dirty", `PR 19: "stream" ≈ 2×`, "wordcount", runs, units)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines for 2 metrics:\n%s", len(lines), out.String())
	}

	f, err := os.Open(filepath.Join("..", "..", "bench", "trajectory.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatal("bench/trajectory.jsonl is empty")
	}
	if got, want := keysInOrder(t, lines[1]), keysInOrder(t, sc.Text()); !reflect.DeepEqual(got, want) {
		t.Errorf("keys %v, the file's are %v", got, want)
	}

	var row struct {
		Commit, Change, Workload, Metric, Unit string
		Median, Q1, Q3                         float64
		N, Nproc                               int
	}
	if err := json.Unmarshal([]byte(lines[1]), &row); err != nil {
		t.Fatalf("%v: %s", err, lines[1])
	}
	if row.Commit != "0123456789ab-dirty" || row.Change != `PR 19: "stream" ≈ 2×` || row.Workload != "wordcount" ||
		row.Metric != "spark.job_s" || row.Unit != "s" || row.Median != 0.3 || row.Q1 != 0.2 || row.Q3 != 0.4 ||
		row.N != 5 || row.Nproc < 1 {
		t.Errorf("row = %+v", row)
	}
}

// keysInOrder returns a JSON object's keys as written.
func keysInOrder(t *testing.T, line string) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(line))
	if _, err := dec.Token(); err != nil { // {
		t.Fatalf("%v: %s", err, line)
	}
	var keys []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatalf("%v: %s", err, line)
		}
		keys = append(keys, key.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatalf("%v: %s", err, line)
		}
	}
	return keys
}

// TestExportWritesTheTreeOfARef: the base is the tree of a commit, exported
// with git archive, and nothing of git's own comes with it.
func TestExportWritesTheTreeOfARef(t *testing.T) {
	if _, err := gitOutput("rev-parse", "HEAD"); err != nil {
		t.Skip("not in a git checkout:", err)
	}
	dir := filepath.Join(t.TempDir(), "base")
	if err := export("HEAD", dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "main.go")); err != nil {
		t.Errorf("the export has no main.go: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ".git")); !os.IsNotExist(err) {
		t.Errorf("the export has a .git entry (%v)", err)
	}
	if err := export("no-such-ref-anywhere", filepath.Join(t.TempDir(), "bad")); err == nil {
		t.Error("exporting a ref that does not exist succeeded")
	}
}
