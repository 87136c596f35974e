package cluster

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
)

func TestGrid5000Profile(t *testing.T) {
	s := Grid5000(32)
	if s.Nodes != 32 || s.CoresPerNode != 16 {
		t.Errorf("Grid5000 topology wrong: %+v", s)
	}
	if s.MemPerNode != 128*core.GB {
		t.Errorf("memory = %v, want 128GB", s.MemPerNode)
	}
	if s.TotalCores() != 512 {
		t.Errorf("total cores = %d, want 512", s.TotalCores())
	}
	if err := s.Validate(); err != nil {
		t.Errorf("paper profile invalid: %v", err)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{},
		{Nodes: 1, CoresPerNode: 0, MemPerNode: 1, DiskSeqMiBps: 1, NetMiBps: 1},
		{Nodes: 1, CoresPerNode: 1, MemPerNode: 0, DiskSeqMiBps: 1, NetMiBps: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestMaterialize(t *testing.T) {
	sim := des.New()
	nodes := Grid5000(4).Materialize(sim)
	if len(nodes) != 4 {
		t.Fatalf("materialized %d nodes, want 4", len(nodes))
	}
	n := nodes[2]
	if n.CPU.Capacity() != 16 {
		t.Errorf("cpu capacity = %v, want 16", n.CPU.Capacity())
	}
	var doneAt float64
	n.CPU.Use(32, 1, 1, func() { doneAt = sim.Now() })
	sim.Run()
	if math.Abs(doneAt-32) > 1e-9 {
		t.Errorf("single-core demand done at %v, want 32", doneAt)
	}
}

func TestSimNodeMemGauge(t *testing.T) {
	sim := des.New()
	n := Grid5000(1).Materialize(sim)[0]
	n.UseMem(64 * float64(core.GB))
	if got := n.Mem.At(0); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("mem fraction = %v, want 0.5", got)
	}
	n.UseMem(-128 * float64(core.GB)) // over-release clamps at zero
	if n.MemUsed() != 0 {
		t.Errorf("mem used = %v, want 0", n.MemUsed())
	}
}

func TestRuntimeRunTasks(t *testing.T) {
	rt, err := NewRuntime(Spec{Nodes: 3, CoresPerNode: 2, MemPerNode: core.GB, DiskSeqMiBps: 100, NetMiBps: 100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	tasks := make([]Task, 30)
	for i := range tasks {
		tasks[i] = Task{Node: i % 3, Fn: func() error { n.Add(1); return nil }}
	}
	if err := rt.RunTasks(tasks); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 30 {
		t.Errorf("ran %d tasks, want 30", n.Load())
	}
	if rt.TasksLaunched() != 30 || rt.Waves() != 1 {
		t.Errorf("launched=%d waves=%d, want 30/1", rt.TasksLaunched(), rt.Waves())
	}
}

func TestRuntimeSlotLimit(t *testing.T) {
	rt, _ := NewRuntime(Spec{Nodes: 1, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 1, NetMiBps: 1}, 2)
	var cur, peak atomic.Int64
	tasks := make([]Task, 16)
	for i := range tasks {
		tasks[i] = Task{Node: 0, Fn: func() error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			for j := 0; j < 1000; j++ {
				_ = j
			}
			cur.Add(-1)
			return nil
		}}
	}
	if err := rt.RunTasks(tasks); err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 2 {
		t.Errorf("peak concurrency %d exceeded 2 slots", peak.Load())
	}
}

// TestRuntimeSlotLimitPerNode pins the slot contract across nodes: each
// node's concurrency is capped independently — a saturated node must not
// steal slots from (or lend slots to) another.
func TestRuntimeSlotLimitPerNode(t *testing.T) {
	const slots = 2
	rt, _ := NewRuntime(Spec{Nodes: 3, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 1, NetMiBps: 1}, slots)
	cur := make([]atomic.Int64, 3)
	peak := make([]atomic.Int64, 3)
	var tasks []Task
	for i := 0; i < 36; i++ {
		node := i % 3
		tasks = append(tasks, Task{Node: node, Fn: func() error {
			c := cur[node].Add(1)
			for {
				p := peak[node].Load()
				if c <= p || peak[node].CompareAndSwap(p, c) {
					break
				}
			}
			for j := 0; j < 2000; j++ {
				_ = j
			}
			cur[node].Add(-1)
			return nil
		}})
	}
	if err := rt.RunTasks(tasks); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		if p := peak[n].Load(); p > slots {
			t.Errorf("node %d peak concurrency %d exceeded %d slots", n, p, slots)
		}
	}
}

// TestRuntimeWaveCounting pins Waves as a per-RunTasks-call counter — the
// scheduling-overhead metric that separates Spark's loop unrolling (many
// waves) from Flink's single pipelined wave.
func TestRuntimeWaveCounting(t *testing.T) {
	rt, _ := NewRuntime(Grid5000(2), 4)
	for i := 1; i <= 5; i++ {
		if err := rt.RunTasks([]Task{{Node: 0, Fn: func() error { return nil }}}); err != nil {
			t.Fatal(err)
		}
		if rt.Waves() != int64(i) {
			t.Fatalf("after %d calls Waves = %d", i, rt.Waves())
		}
	}
	if rt.TasksLaunched() != 5 {
		t.Errorf("TasksLaunched = %d, want 5", rt.TasksLaunched())
	}
}

// TestRuntimeErrorDrain pins the error-drain contract of RunTasks: a
// failing task does not cancel the wave — every remaining task still runs
// to completion (a failing stage drains), and the FIRST error is the one
// reported even when several tasks fail.
func TestRuntimeErrorDrain(t *testing.T) {
	rt, _ := NewRuntime(Spec{Nodes: 2, CoresPerNode: 2, MemPerNode: core.GB, DiskSeqMiBps: 1, NetMiBps: 1}, 1)
	firstBoom := errors.New("first failure")
	var ran atomic.Int64
	var tasks []Task
	// Slot width 1 serializes each node's tasks, so the failing task (the
	// first on node 0) finishes before most of the wave even starts — any
	// cancellation behaviour would be caught by the completion count.
	tasks = append(tasks, Task{Node: 0, Fn: func() error { ran.Add(1); return firstBoom }})
	for i := 0; i < 10; i++ {
		tasks = append(tasks, Task{Node: i % 2, Fn: func() error { ran.Add(1); return nil }})
	}
	tasks = append(tasks, Task{Node: 1, Fn: func() error { ran.Add(1); return errors.New("later failure") }})
	err := rt.RunTasks(tasks)
	if got := ran.Load(); got != int64(len(tasks)) {
		t.Errorf("%d of %d tasks ran after a failure — the wave must drain", got, len(tasks))
	}
	if err == nil {
		t.Fatal("failing wave reported no error")
	}
	if !errors.Is(err, firstBoom) && err.Error() != "later failure" {
		t.Errorf("RunTasks returned %v, want one of the injected failures", err)
	}
}

// TestRuntimeSubtasks covers the intra-task parallelism used by the
// reduce-side merge: capped at the node's slot width, no slot acquisition
// (safe to call from a task already holding a slot), error propagation.
func TestRuntimeSubtasks(t *testing.T) {
	const slots = 2
	rt, _ := NewRuntime(Spec{Nodes: 2, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 1, NetMiBps: 1}, slots)
	var cur, peak, ran atomic.Int64
	fns := make([]func() error, 12)
	for i := range fns {
		fns[i] = func() error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			for j := 0; j < 2000; j++ {
				_ = j
			}
			cur.Add(-1)
			ran.Add(1)
			return nil
		}
	}
	// Run from inside a task occupying the node's only free slots: with
	// nested slot acquisition this would deadlock rather than finish.
	outer := make([]Task, slots)
	for i := range outer {
		outer[i] = Task{Node: 0, Fn: func() error { return rt.Subtasks(0, fns[:6]) }}
	}
	if err := rt.RunTasks(outer); err != nil {
		t.Fatal(err)
	}
	if err := rt.Subtasks(0, fns[6:]); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != int64(2*6+6) {
		t.Errorf("%d subtasks ran, want 18", ran.Load())
	}
	if p := peak.Load(); p > 2*slots+slots {
		t.Errorf("peak merge concurrency %d exceeds %d", p, 3*slots)
	}
	if rt.SubtasksLaunched() != 18 {
		t.Errorf("SubtasksLaunched = %d, want 18", rt.SubtasksLaunched())
	}
	boom := errors.New("merge failed")
	if err := rt.Subtasks(0, []func() error{func() error { return boom }}); !errors.Is(err, boom) {
		t.Errorf("Subtasks error = %v, want %v", err, boom)
	}
	if err := rt.Subtasks(9, fns[:1]); err == nil {
		t.Error("subtasks on nonexistent node accepted")
	}
}

func TestRuntimeErrorPropagation(t *testing.T) {
	rt, _ := NewRuntime(Grid5000(2), 4)
	boom := errors.New("task failed")
	err := rt.RunTasks([]Task{
		{Node: 0, Fn: func() error { return nil }},
		{Node: 1, Fn: func() error { return boom }},
	})
	if !errors.Is(err, boom) {
		t.Errorf("RunTasks error = %v, want %v", err, boom)
	}
}

func TestRuntimeRejectsBadNode(t *testing.T) {
	rt, _ := NewRuntime(Grid5000(2), 1)
	if err := rt.RunTasks([]Task{{Node: 7, Fn: func() error { return nil }}}); err == nil {
		t.Error("task on nonexistent node accepted")
	}
}

// TestRuntimeBadNodeLaunchesNothing is the regression test for the RunTasks
// goroutine leak: a batch containing an invalid placement must be rejected
// before ANY task goroutine launches. The old code validated mid-loop and
// returned without wg.Wait(), abandoning the tasks already started.
func TestRuntimeBadNodeLaunchesNothing(t *testing.T) {
	rt, _ := NewRuntime(Spec{Nodes: 2, CoresPerNode: 2, MemPerNode: core.GB, DiskSeqMiBps: 1, NetMiBps: 1}, 2)
	var ran atomic.Int64
	tasks := []Task{
		{Node: 0, Fn: func() error { ran.Add(1); return nil }},
		{Node: 1, Fn: func() error { ran.Add(1); return nil }},
		{Node: 9, Fn: func() error { ran.Add(1); return nil }}, // invalid, listed last
	}
	if err := rt.RunTasks(tasks); err == nil {
		t.Fatal("batch with invalid placement accepted")
	}
	if got := ran.Load(); got != 0 {
		t.Errorf("%d tasks ran from a rejected batch, want 0", got)
	}
	if rt.TasksLaunched() != 0 {
		t.Errorf("TasksLaunched = %d after rejected batch, want 0", rt.TasksLaunched())
	}
	if rt.Waves() != 0 {
		t.Errorf("Waves = %d after rejected batch, want 0", rt.Waves())
	}
}

func TestRuntimeDefaultsSlots(t *testing.T) {
	rt, _ := NewRuntime(Grid5000(2), 0)
	if rt.SlotsPerNode() != 16 {
		t.Errorf("default slots = %d, want cores (16)", rt.SlotsPerNode())
	}
}

func TestNodeFor(t *testing.T) {
	rt, _ := NewRuntime(Grid5000(4), 1)
	for p := 0; p < 16; p++ {
		if n := rt.NodeFor(p); n != p%4 {
			t.Errorf("NodeFor(%d) = %d, want %d", p, n, p%4)
		}
	}
	if n := rt.NodeFor(-5); n < 0 || n >= 4 {
		t.Errorf("NodeFor(-5) out of range: %d", n)
	}
}
