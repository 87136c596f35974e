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
