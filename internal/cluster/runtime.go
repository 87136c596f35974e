package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Task is one unit of real work pinned to a node.
type Task struct {
	Node int
	Fn   func() error
}

// Runtime executes real closures on per-node worker pools, the substrate
// under both mini-engines at laptop scale. Each node runs at most
// slotsPerNode tasks at once — Spark executor cores and Flink task slots
// respectively.
type Runtime struct {
	spec         Spec
	slotsPerNode int
	sems         []chan struct{}

	tasksLaunched    atomic.Int64
	subtasksLaunched atomic.Int64
	waves            atomic.Int64
}

// NewRuntime builds a runtime. slotsPerNode ≤ 0 defaults to the spec's
// cores per node.
func NewRuntime(spec Spec, slotsPerNode int) (*Runtime, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if slotsPerNode <= 0 {
		slotsPerNode = spec.CoresPerNode
	}
	r := &Runtime{spec: spec, slotsPerNode: slotsPerNode, sems: make([]chan struct{}, spec.Nodes)}
	for i := range r.sems {
		r.sems[i] = make(chan struct{}, slotsPerNode)
	}
	return r, nil
}

// Spec returns the topology.
func (r *Runtime) Spec() Spec { return r.spec }

// SlotsPerNode returns the per-node concurrency.
func (r *Runtime) SlotsPerNode() int { return r.slotsPerNode }

// NodeFor maps a partition index to its node round-robin, the placement
// both engines use when locality gives no better answer.
func (r *Runtime) NodeFor(partition int) int {
	if partition < 0 {
		partition = -partition
	}
	return partition % r.spec.Nodes
}

// RunTasks executes tasks respecting per-node slot limits and returns the
// first error (remaining tasks still run to completion, like a failing
// stage draining). It counts one scheduling wave per call — the per-
// iteration scheduling overhead of Spark's loop unrolling shows up as many
// waves, Flink's cyclic dataflow as few.
func (r *Runtime) RunTasks(tasks []Task) error {
	// Validate placements before launching anything: rejecting a task
	// mid-loop would abandon the goroutines already started without a
	// wg.Wait, leaking them past the call.
	for _, t := range tasks {
		if t.Node < 0 || t.Node >= r.spec.Nodes {
			return fmt.Errorf("cluster: task pinned to node %d of %d", t.Node, r.spec.Nodes)
		}
	}
	r.waves.Add(1)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, t := range tasks {
		wg.Add(1)
		r.tasksLaunched.Add(1)
		sem := r.sems[t.Node]
		fn := t.Fn
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := fn(); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Subtasks runs intra-task parallel work pinned to one node — the reduce
// side's parallel k-way merge threads. Concurrency is capped at the node's
// slot width, but slots are NOT acquired: the calling task already holds
// one, and nesting slot acquisition would deadlock a fully loaded node
// (Hadoop's merge threads likewise live inside the reduce task's JVM).
// Every fn runs to completion; the first error is returned.
func (r *Runtime) Subtasks(node int, fns []func() error) error {
	if node < 0 || node >= r.spec.Nodes {
		return fmt.Errorf("cluster: subtasks pinned to node %d of %d", node, r.spec.Nodes)
	}
	r.subtasksLaunched.Add(int64(len(fns)))
	gate := make(chan struct{}, r.slotsPerNode)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, fn := range fns {
		wg.Add(1)
		fn := fn
		go func() {
			defer wg.Done()
			gate <- struct{}{}
			defer func() { <-gate }()
			if err := fn(); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// TasksLaunched returns the cumulative number of scheduled tasks.
func (r *Runtime) TasksLaunched() int64 { return r.tasksLaunched.Load() }

// SubtasksLaunched returns the cumulative number of intra-task subtasks.
func (r *Runtime) SubtasksLaunched() int64 { return r.subtasksLaunched.Load() }

// Waves returns the number of RunTasks scheduling rounds; a direct measure
// of scheduling overhead differences between loop unrolling and cyclic
// dataflows.
func (r *Runtime) Waves() int64 { return r.waves.Load() }
