package planner

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine/mapreduce"
	"repro/internal/metrics"
)

func laptopSpec() cluster.Spec {
	return cluster.Spec{Nodes: 2, CoresPerNode: 8, MemPerNode: core.GB, DiskSeqMiBps: 200, NetMiBps: 200}
}

// tableCost is a table-driven CostProvider for planner mechanics tests.
type tableCost struct {
	cost func(spec PlanSpec, cand Candidate) (Cost, error)
}

func (t tableCost) Estimate(spec PlanSpec, cand Candidate, _ cluster.Spec) (Cost, error) {
	return t.cost(spec, cand)
}

func TestPlanPicksCheapest(t *testing.T) {
	p := &Planner{
		Spec: laptopSpec(),
		Provider: tableCost{cost: func(_ PlanSpec, cand Candidate) (Cost, error) {
			// mapreduce/sort/p=8/none is rigged to win.
			sec := 10.0
			if cand.Engine == "mapreduce" && cand.Strategy == "sort" && cand.Parallelism == 8 && cand.Compress == "none" {
				sec = 1.0
			}
			return Cost{Seconds: sec, ShuffleRawBytes: 1 << 20}, nil
		}},
	}
	d, err := p.Plan(PlanSpec{Workload: "w", Shape: Aggregate, Input: InputStats{Bytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	want := Candidate{Engine: "mapreduce", Strategy: "sort", Compress: "none", Parallelism: 8}
	if d.Chosen != want {
		t.Fatalf("chose %+v, want %+v", d.Chosen, want)
	}
	if d.Est.Seconds != 1.0 {
		t.Fatalf("est %v, want 1.0", d.Est.Seconds)
	}
	if d.Table[0].Cand != want {
		t.Fatalf("cost table not sorted cheapest-first: %+v", d.Table[0])
	}
	if len(d.Trace.Events()) == 0 || d.Trace.Events()[0].Kind != EvEstimate {
		t.Fatal("decision trace should open with an estimate event")
	}
}

func TestPlanSkipsErroredCandidates(t *testing.T) {
	p := &Planner{
		Spec: laptopSpec(),
		Provider: tableCost{cost: func(_ PlanSpec, cand Candidate) (Cost, error) {
			if cand.Engine != "flink" {
				return Cost{}, errors.New("no estimate")
			}
			return Cost{Seconds: 2.0}, nil
		}},
	}
	d, err := p.Plan(PlanSpec{Workload: "w", Input: InputStats{Bytes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Chosen.Engine != "flink" {
		t.Fatalf("chose %+v, want a flink candidate (the only estimable)", d.Chosen)
	}
	// Errored rows stay visible at the bottom of the table.
	if last := d.Table[len(d.Table)-1]; last.Err == nil {
		t.Fatal("errored candidates should sort last, found none at the bottom")
	}
}

func TestPlanFailsWhenNothingEstimable(t *testing.T) {
	p := &Planner{
		Spec:     laptopSpec(),
		Provider: tableCost{cost: func(PlanSpec, Candidate) (Cost, error) { return Cost{}, errors.New("nope") }},
	}
	if _, err := p.Plan(PlanSpec{Workload: "w"}); err == nil {
		t.Fatal("Plan should fail when every candidate errors")
	}
}

func TestPlanForPinsEngine(t *testing.T) {
	p := &Planner{Spec: laptopSpec(), Provider: SimCost{}}
	d, err := p.PlanFor("mapreduce", PlanSpec{Workload: "WordCount", Shape: Aggregate, Input: InputStats{Bytes: 768 * 1024}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Table {
		if s.Cand.Engine != "mapreduce" {
			t.Fatalf("PlanFor(mapreduce) scored %+v", s.Cand)
		}
	}
}

// TestSimCostDecisions pins the static decisions the ext10 probe sweep
// validated, never lz at laptop bandwidth, across the probe's two sizes.
// WordCount goes to the pipelined engine at low parallelism (its two
// strategies measure level there). TeraSort used to as well; the re-fit
// after the shuffle core began folding combines on arrival read spark's and
// mapreduce's constants off the same sweep as flink's, and on that sweep
// flink/p=2 and spark/sort/p=2 are 5 % apart (3.0 against 3.3 ms at 4 000
// records, 14.4 against 15.0 at 16 000) with mapreduce 25 % behind: either
// of the two is a right answer, mapreduce is not — at the sweep's record
// counts or at this test's own 192 and 768 KiB, where mapreduce/sort/p=2
// measures 2.67 and 9.7 ms against spark/sort/p=2's 2.46 and 7.9 and
// flink's 1.8-1.95 and 7.3-7.9 (medians of five best-of-7 sweeps). At
// 192 KiB flink leads spark by a quarter and the model, whose fixed part
// for flink averages WordCount's intercepts with TeraSort's, still reads
// spark/sort ahead there. On a staged engine the map-side order is worth
// keeping.
func TestSimCostDecisions(t *testing.T) {
	p := &Planner{Spec: laptopSpec(), Provider: SimCost{}, Parallelisms: []int{2, 8}}
	for _, bytes := range []int64{192 * 1024, 768 * 1024} {
		wc, err := p.Plan(PlanSpec{Workload: "WordCount", Shape: Aggregate, Input: InputStats{Bytes: bytes}})
		if err != nil {
			t.Fatal(err)
		}
		if wc.Chosen.Engine != "flink" || wc.Chosen.Parallelism != 2 || wc.Chosen.Compress != "none" {
			t.Errorf("WordCount bytes=%d: chose %s, want flink/*/p=2/none", bytes, wc.Chosen)
		}
	}
	for _, bytes := range []int64{192 * 1024, 4000 * 100, 768 * 1024, 16000 * 100} {
		tera := PlanSpec{Workload: "TeraSort", Shape: Sort, Input: InputStats{Bytes: bytes, Records: bytes / 100}}
		ts, err := p.Plan(tera)
		if err != nil {
			t.Fatal(err)
		}
		c := ts.Chosen
		if c.Compress != "none" || c.Parallelism != 2 ||
			!(c.Engine == "flink" || c.Engine == "spark" && c.Strategy == "sort") {
			t.Errorf("TeraSort bytes=%d: chose %s, want flink/*/p=2/none or spark/sort/p=2/none", bytes, c)
		}
		ts, err = p.PlanFor("spark", tera)
		if err != nil {
			t.Fatal(err)
		}
		if ts.Chosen.Strategy != "sort" || ts.Chosen.Compress != "none" || ts.Chosen.Parallelism != 2 {
			t.Errorf("TeraSort on spark bytes=%d: chose %s, want sort/none/p=2", bytes, ts.Chosen)
		}
	}
}

// TestApplyNeverOverridesExplicitKeys is the precedence pin: a key the user
// set explicitly survives Apply untouched, and the skip shows in the trace.
func TestApplyNeverOverridesExplicitKeys(t *testing.T) {
	p := &Planner{Spec: laptopSpec(), Provider: SimCost{}, Parallelisms: []int{2, 8}}
	d, err := p.Plan(PlanSpec{Workload: "WordCount", Shape: Aggregate, Input: InputStats{Bytes: 768 * 1024}})
	if err != nil {
		t.Fatal(err)
	}
	pinned := "sort" // the opposite of the plan
	if d.Chosen.Strategy == "sort" {
		pinned = "hash"
	}

	conf := core.NewConfig().
		Set(core.ShuffleStrategy, pinned).
		SetInt(mapreduce.MRReduceTasks, 64)
	d.Apply(conf)

	if got := conf.String(core.ShuffleStrategy, ""); got != pinned {
		t.Fatalf("planner overrode explicit %s: %q", core.ShuffleStrategy, got)
	}
	if got := conf.Int(mapreduce.MRReduceTasks, 0); got != 64 {
		t.Fatalf("planner overrode explicit %s: %d", mapreduce.MRReduceTasks, got)
	}
	// Non-explicit keys do get the planner's values.
	if got := conf.Int(core.SparkDefaultParallelism, 0); got != d.Chosen.Parallelism {
		t.Fatalf("planner did not set %s: %d", core.SparkDefaultParallelism, got)
	}
	if got := conf.String(core.ShuffleCompress, ""); got != d.Chosen.Compress {
		t.Fatalf("planner did not set %s: %q", core.ShuffleCompress, got)
	}
	var skips int
	for _, e := range d.Trace.Events() {
		if e.Kind == EvSkip {
			skips++
		}
	}
	if skips != 2 {
		t.Fatalf("want 2 skip events for the 2 explicit keys, got %d\n%s", skips, d.Trace.Render())
	}
}

func TestCostTable(t *testing.T) {
	p := &Planner{
		Spec: laptopSpec(),
		Provider: tableCost{cost: func(_ PlanSpec, cand Candidate) (Cost, error) {
			if cand.Engine == "flink" {
				return Cost{}, errors.New("boom")
			}
			return Cost{Seconds: 1, ShuffleRawBytes: 1 << 20}, nil
		}},
	}
	d, err := p.Plan(PlanSpec{Workload: "w", Input: InputStats{Bytes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rows := d.CostTable()
	if len(rows) != len(d.Table)+1 {
		t.Fatalf("cost table rows %d, want %d", len(rows), len(d.Table)+1)
	}
	if rows[0][0] != "candidate" {
		t.Fatalf("missing header: %v", rows[0])
	}
	var sawErr bool
	for _, r := range rows[1:] {
		if strings.HasPrefix(r[1], "error:") {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("errored candidates should render in the table")
	}
}

func TestCandidateString(t *testing.T) {
	c := Candidate{Engine: "spark", Strategy: "sort", Compress: "lz", Parallelism: 4, Cache: true}
	if got := c.String(); got != "spark/sort/p=4/lz/cached" {
		t.Fatalf("String() = %q", got)
	}
	c2 := Candidate{Engine: "mapreduce", Strategy: "hash", Compress: "none", Parallelism: 8}
	if got := c2.String(); got != "mapreduce/hash/p=8" {
		t.Fatalf("String() = %q", got)
	}
}

func TestShapeString(t *testing.T) {
	for shape, want := range map[Shape]string{Aggregate: "aggregate", Sort: "sort", Scan: "scan", Iterate: "iterate"} {
		if got := shape.String(); got != want {
			t.Errorf("Shape(%d).String() = %q, want %q", int(shape), got, want)
		}
	}
}

// replanProvider flips its preferred strategy with the corrected distinct
// fraction — the hash→sort aggregation flip the calibrated model had while
// MapReduce's hash path won at the default cardinality.
type replanProvider struct{}

func (replanProvider) Estimate(spec PlanSpec, cand Candidate, _ cluster.Spec) (Cost, error) {
	sec := 2.0
	if spec.Input.DistinctFrac > 0.5 { // corrected: combiner useless, sort/p=2 wins
		if cand.Strategy == "sort" && cand.Parallelism == 2 {
			sec = 1.0
		}
	} else { // believed: combiner works, hash/p=8 wins
		if cand.Strategy == "hash" && cand.Parallelism == 8 {
			sec = 1.0
		}
	}
	return Cost{Seconds: sec, ShuffleRawBytes: spec.Input.Bytes}, nil
}

func TestMonitorReplansOnDivergence(t *testing.T) {
	p := &Planner{Spec: laptopSpec(), Provider: replanProvider{}, Parallelisms: []int{2, 8}}
	spec := PlanSpec{Workload: "WordCount", Shape: Aggregate, Input: InputStats{Bytes: 1 << 20}}
	d, err := p.PlanFor("mapreduce", spec)
	if err != nil {
		t.Fatal(err)
	}
	if d.Chosen.Strategy != "hash" || d.Chosen.Parallelism != 8 {
		t.Fatalf("static decision %s, want hash/p=8", d.Chosen)
	}

	conf := core.NewConfig()
	d.Apply(conf)
	var jm metrics.JobMetrics
	mon := NewMonitor(p, d, conf, &jm)
	defer mon.Detach()

	// A combiner that did nothing: ratio 1 → corrected DistinctFrac = 1.
	jm.CombineInputRecords.Add(1000)
	jm.CombineOutputRecs.Add(1000)

	// Stage boundary with observed raw volume well under the trigger: keep.
	jm.ShuffleRawBytesWritten.Add(1 << 20)
	jm.NotifyStage("map-0")
	if mon.Replans() != 0 {
		t.Fatalf("replanned below threshold:\n%s", d.Trace.Render())
	}

	// Blow past the 2× trigger: the monitor must re-plan to sort/p=2.
	jm.ShuffleRawBytesWritten.Add(8 << 20)
	jm.NotifyStage("map-1")
	if mon.Replans() != 1 {
		t.Fatalf("want 1 replan, got %d:\n%s", mon.Replans(), mon.Decision().Trace.Render())
	}
	nd := mon.Decision()
	if nd.Chosen.Strategy != "sort" || nd.Chosen.Parallelism != 2 {
		t.Fatalf("replanned to %s, want sort/p=2", nd.Chosen)
	}
	if nd.Chosen.Engine != "mapreduce" {
		t.Fatalf("replan switched engine to %s; the engine is pinned mid-run", nd.Chosen.Engine)
	}
	// The corrected configuration reached the live conf.
	if got := conf.String(core.ShuffleStrategy, ""); got != "sort" {
		t.Fatalf("conf strategy after replan = %q", got)
	}
	if got := conf.Int(mapreduce.MRReduceTasks, 0); got != 2 {
		t.Fatalf("conf reduce tasks after replan = %d", got)
	}
	// One shared trail, with the replan event visible.
	if nd.Trace.Replans() != 1 {
		t.Fatalf("trace replan count %d\n%s", nd.Trace.Replans(), nd.Trace.Render())
	}
	render := nd.Trace.Render()
	for _, want := range []string{"[estimate]", "[observe @map-1]", "[replan @map-1]", "hash", "sort"} {
		if !strings.Contains(render, want) {
			t.Fatalf("trace missing %q:\n%s", want, render)
		}
	}
}

func TestMonitorRespectsExplicitKeys(t *testing.T) {
	p := &Planner{Spec: laptopSpec(), Provider: replanProvider{}, Parallelisms: []int{2, 8}}
	spec := PlanSpec{Workload: "WordCount", Shape: Aggregate, Input: InputStats{Bytes: 1 << 20}}
	d, err := p.PlanFor("mapreduce", spec)
	if err != nil {
		t.Fatal(err)
	}
	conf := core.NewConfig().Set(core.ShuffleStrategy, "hash") // user pinned hash
	d.Apply(conf)
	var jm metrics.JobMetrics
	mon := NewMonitor(p, d, conf, &jm)
	defer mon.Detach()

	jm.ShuffleRawBytesWritten.Add(16 << 20)
	jm.NotifyStage("map-0")
	if mon.Replans() != 1 {
		t.Fatalf("want a replan, got %d", mon.Replans())
	}
	if got := conf.String(core.ShuffleStrategy, ""); got != "hash" {
		t.Fatalf("replan overrode the user's explicit strategy: %q", got)
	}
	if got := conf.Int(mapreduce.MRReduceTasks, 0); got != 2 {
		t.Fatalf("replan should still adjust non-explicit parallelism, got %d", got)
	}
}

func TestMonitorReplanBudget(t *testing.T) {
	p := &Planner{Spec: laptopSpec(), Provider: replanProvider{}, Parallelisms: []int{2, 8}}
	d, err := p.PlanFor("mapreduce", PlanSpec{Workload: "w", Shape: Aggregate, Input: InputStats{Bytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	conf := core.NewConfig()
	var jm metrics.JobMetrics
	mon := NewMonitor(p, d, conf, &jm)
	defer mon.Detach()

	for i := 0; i < maxReplans+4; i++ {
		jm.ShuffleRawBytesWritten.Add(64 << 20) // keep the ratio diverging
		jm.NotifyStage(fmt.Sprintf("map-%d", i))
	}
	if mon.Replans() > maxReplans {
		t.Fatalf("replans %d exceeded budget %d", mon.Replans(), maxReplans)
	}
}

func TestMonitorSortShapeCorrectsBytes(t *testing.T) {
	// For Sort shapes divergence is attributed to input size.
	var sawBytes int64
	prov := tableCost{cost: func(spec PlanSpec, cand Candidate) (Cost, error) {
		if spec.Input.Bytes > sawBytes {
			sawBytes = spec.Input.Bytes
		}
		return Cost{Seconds: 1, ShuffleRawBytes: spec.Input.Bytes}, nil
	}}
	p := &Planner{Spec: laptopSpec(), Provider: prov, Parallelisms: []int{2}}
	d, err := p.PlanFor("spark", PlanSpec{Workload: "TeraSort", Shape: Sort, Input: InputStats{Bytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	conf := core.NewConfig()
	var jm metrics.JobMetrics
	mon := NewMonitor(p, d, conf, &jm)
	defer mon.Detach()

	jm.ShuffleRawBytesWritten.Add(4 << 20)
	jm.NotifyStage("map-0")
	if mon.Replans() != 1 {
		t.Fatalf("want a replan, got %d:\n%s", mon.Replans(), d.Trace.Render())
	}
	if sawBytes != 4<<20 {
		t.Fatalf("replan should re-estimate with corrected bytes 4MiB, saw %d", sawBytes)
	}
}

func TestMonitorReset(t *testing.T) {
	p := &Planner{Spec: laptopSpec(), Provider: replanProvider{}, Parallelisms: []int{2, 8}}
	d, err := p.PlanFor("mapreduce", PlanSpec{Workload: "w", Shape: Aggregate, Input: InputStats{Bytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	var jm metrics.JobMetrics
	jm.ShuffleRawBytesWritten.Add(100 << 20) // pre-monitor history
	mon := NewMonitor(p, d, core.NewConfig(), &jm)
	defer mon.Detach()
	jm.ShuffleRawBytesWritten.Add(32 << 20)
	mon.Reset() // new job baseline: the 32 MiB above no longer counts
	jm.ShuffleRawBytesWritten.Add(1 << 20)
	jm.NotifyStage("map-0")
	if got := mon.Replans(); got != 0 {
		t.Fatalf("replan fired against a stale baseline (%d):\n%s", got, d.Trace.Render())
	}
}
