package core

import (
	"strings"
	"testing"
)

// wordCountPlan builds the paper's Flink Word Count plan:
// DataSource->FlatMap->GroupCombine | GroupReduce | DataSink.
func wordCountPlan() *Plan {
	src := NewPlanNode(1, OpSource, "DataSource->FlatMap->GroupCombine")
	red := NewPlanNode(2, OpGroupReduce, "", src)
	sink := NewPlanNode(3, OpSink, "", red)
	return &Plan{Framework: "flink", Workload: "WordCount", Sinks: []*PlanNode{sink}}
}

func TestPlanNodesTopological(t *testing.T) {
	p := wordCountPlan()
	nodes := p.Nodes()
	if len(nodes) != 3 {
		t.Fatalf("Nodes() returned %d nodes, want 3", len(nodes))
	}
	pos := make(map[int]int)
	for i, n := range nodes {
		pos[n.ID] = i
	}
	for _, n := range nodes {
		for _, in := range n.Inputs {
			if pos[in.ID] > pos[n.ID] {
				t.Errorf("input %d ordered after consumer %d", in.ID, n.ID)
			}
		}
	}
}

func TestPlanValidate(t *testing.T) {
	if err := wordCountPlan().Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestPlanValidateNoSink(t *testing.T) {
	p := &Plan{Framework: "spark", Workload: "x"}
	if err := p.Validate(); err == nil {
		t.Error("plan without sinks accepted")
	}
}

func TestPlanValidateCycle(t *testing.T) {
	a := NewPlanNode(1, OpMap, "A")
	b := NewPlanNode(2, OpMap, "B", a)
	a.Inputs = []*PlanNode{b}
	p := &Plan{Framework: "spark", Workload: "cyclic", Sinks: []*PlanNode{b}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cyclic plan: got err=%v, want cycle error", err)
	}
}

func TestPlanValidateDanglingNonSource(t *testing.T) {
	m := NewPlanNode(1, OpMap, "Map") // no inputs, not a source
	p := &Plan{Framework: "spark", Workload: "bad", Sinks: []*PlanNode{m}}
	if err := p.Validate(); err == nil {
		t.Error("plan whose leaf is not a source was accepted")
	}
}

func TestPlanOperatorsDistinct(t *testing.T) {
	p := wordCountPlan()
	ops := p.Operators()
	want := []string{"DataSource->FlatMap->GroupCombine", "GroupReduce", "DataSink"}
	if len(ops) != len(want) {
		t.Fatalf("Operators() = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("Operators()[%d] = %q, want %q", i, ops[i], want[i])
		}
	}
}

func TestPlanString(t *testing.T) {
	s := wordCountPlan().String()
	for _, frag := range []string{"flink/WordCount", "GroupReduce", "DataSink"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Plan.String() = %q missing %q", s, frag)
		}
	}
}

func TestOpKindString(t *testing.T) {
	if OpSource.String() != "DataSource" || OpDeltaIteration.String() != "DeltaIteration" {
		t.Error("OpKind names wrong")
	}
	if OpKind(999).String() != "Unknown" {
		t.Error("out-of-range OpKind should be Unknown")
	}
}
