package experiments

import (
	"fmt"
	"math"
	"strings"
)

// Row is one x-axis group of a comparison chart: mean ± std seconds per
// framework. NaN marks a failed run (the paper's "no" cells in Table VII).
// The MapRed columns are only rendered for three-way reports (the ext*
// experiments comparing against the MapReduce baseline).
type Row struct {
	Label     string
	Spark     float64
	SparkStd  float64
	Flink     float64
	FlinkStd  float64
	MapRed    float64
	MapRedStd float64
	// Planner columns of the planner-regret report (ext10): measured
	// seconds of the planner's chosen configuration, the oracle sweep's
	// best and worst fixed configurations and the regret ratio.
	PlannerSec float64
	OracleSec  float64
	WorstSec   float64
	Regret     float64
	PaperNote  string // the paper's reported values or claim, for the report
}

// Report is the regenerated artifact for one experiment id.
type Report struct {
	ID       string
	Title    string
	Rows     []Row
	Figures  []string // rendered resource-usage correlation figures
	Notes    []string
	Table    [][]string // free-form table (operator/config tables)
	ThreeWay bool       // render the mapreduce column next to spark/flink
	// Planner marks the planner-regret report (ext10): rows carry the
	// Planner*/Oracle*/Regret columns for the JSON artifact only — the
	// human rendering is the free-form Table, so Render skips the rows.
	Planner bool
}

// Render produces the report as text: a paper-style comparison table plus
// any correlation figures.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Table) > 0 {
		widths := make([]int, 0)
		for _, row := range r.Table {
			for i, cell := range row {
				if i >= len(widths) {
					widths = append(widths, 0)
				}
				if len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		for _, row := range r.Table {
			for i, cell := range row {
				fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
			}
			b.WriteString("\n")
		}
	}
	if len(r.Rows) > 0 && !r.Planner {
		noteHeader := "paper"
		if r.ThreeWay {
			noteHeader = "notes"
		}
		printRow := func(label, spark, flink, mapred, note string) {
			fmt.Fprintf(&b, "%-16s %-18s %-18s ", label, spark, flink)
			if r.ThreeWay {
				fmt.Fprintf(&b, "%-18s ", mapred)
			}
			fmt.Fprintf(&b, "%s\n", note)
		}
		printRow("config", "spark (s)", "flink (s)", "mapreduce (s)", noteHeader)
		for _, row := range r.Rows {
			printRow(row.Label, cell(row.Spark, row.SparkStd), cell(row.Flink, row.FlinkStd),
				cell(row.MapRed, row.MapRedStd), row.PaperNote)
		}
	}
	for _, fig := range r.Figures {
		b.WriteString("\n")
		b.WriteString(fig)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func cell(mean, std float64) string {
	if math.IsNaN(mean) {
		// Either the run failed (the paper's "no" cells) or the engine was
		// excluded by the -engines filter.
		return "-"
	}
	// Paper-scale times are hundreds of seconds and render as integers;
	// the real-engine sweeps (ext6) measure milliseconds and need the
	// extra digits.
	prec := 0
	if mean < 10 {
		prec = 3
	}
	if std > 0 {
		return fmt.Sprintf("%.*f ± %.*f", prec, mean, prec, std)
	}
	return fmt.Sprintf("%.*f", prec, mean)
}

// Runner produces one experiment's report.
type Runner struct {
	ID    string
	Title string
	Run   func() (*Report, error)
}

var registry []Runner

func register(id, title string, run func() (*Report, error)) {
	registry = append(registry, Runner{ID: id, Title: title, Run: run})
}

// IDs returns the experiment ids in paper order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.ID
	}
	return out
}

// Get returns the runner for an id.
func Get(id string) (Runner, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
