package main

import (
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
