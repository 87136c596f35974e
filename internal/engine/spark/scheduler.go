package spark

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/memory"
	"repro/internal/metrics"
)

// taskContext is handed to every task closure: which node it runs on,
// that node's executor heap, and the job counters.
type taskContext struct {
	node    int
	heap    *memory.Heap
	metrics *metrics.JobMetrics
	ctx     *Context
}

// TransientError wraps an error that task retry may cure (injected faults,
// lost executors). The scheduler retries such tasks up to maxTaskFailures.
type TransientError struct{ Err error }

// Error implements error.
func (e *TransientError) Error() string { return "transient: " + e.Err.Error() }

// Unwrap exposes the cause.
func (e *TransientError) Unwrap() error { return e.Err }

// maxTaskFailures matches spark.task.maxFailures.
const maxTaskFailures = 4

// maxStageRetries bounds FetchFailed-driven stage resubmission.
const maxStageRetries = 3

// runJob runs an action that takes each partition of r as a slice.
func runJob[T any](r *RDD[T], action string, fn func(p int, data []T, tc *taskContext) error) error {
	return runTasks(r, action, func(p int, tc *taskContext) error {
		data, err := r.iterator(p, tc)
		if err != nil {
			return err
		}
		return fn(p, data, tc)
	})
}

// runTasks is the DAG scheduler: it materializes every missing ancestor
// shuffle in topological order (each one a stage with a full barrier, the
// staged execution the paper contrasts with Flink's pipeline), then runs
// the result stage — task(p, tc) computes and consumes partition p of r —
// retrying from lineage on shuffle fetch failures.
func runTasks[T any](r *RDD[T], action string, task func(p int, tc *taskContext) error) error {
	c := r.ctx
	endSpan := c.timeline.StartSpan(action)
	defer endSpan()

	for attempt := 0; ; attempt++ {
		if err := runStages(c, r); err != nil {
			return err
		}
		err := runResultStage(c, r, task)
		if err == nil {
			return nil
		}
		if errors.Is(err, errFetchFailed) && attempt < maxStageRetries {
			c.metrics.Recomputations.Add(1)
			continue // missing outputs are detected and recomputed by runStages
		}
		return err
	}
}

// runStages executes every ancestor shuffle with missing map outputs,
// parents before children.
func runStages(c *Context, final anyRDD) error {
	var order []*shuffleDep
	seenRDD := make(map[int]bool)
	seenShuffle := make(map[int]bool)
	var visit func(r anyRDD)
	visit = func(r anyRDD) {
		if seenRDD[r.rddID()] {
			return
		}
		seenRDD[r.rddID()] = true
		if r.fullyCached() {
			// A fully cached RDD cuts lineage traversal: its ancestors
			// need not run (Spark skips those stages).
			return
		}
		for _, d := range r.deps() {
			visit(d.parent)
			if d.shuffle != nil && !seenShuffle[d.shuffle.id] {
				seenShuffle[d.shuffle.id] = true
				order = append(order, d.shuffle)
			}
		}
	}
	visit(final)

	for _, sd := range order {
		c.shuffles.register(sd)
		missing := c.shuffles.missingMaps(sd.id, sd.numMaps)
		if len(missing) == 0 {
			continue
		}
		c.metrics.Stages.Add(1)
		c.metrics.SchedulingRounds.Add(1)
		tasks := make([]cluster.Task, 0, len(missing))
		for _, mp := range missing {
			mp := mp
			node := placeTask(c, sd.parent, mp)
			tc := &taskContext{node: node, heap: c.heapFor(node), metrics: c.metrics, ctx: c}
			tasks = append(tasks, cluster.Task{Node: node, Fn: func() error {
				c.metrics.TasksLaunched.Add(1)
				return withTaskRetry(sd, sd.write, mp, tc)
			}})
		}
		if err := c.rt.RunTasks(tasks); err != nil {
			return fmt.Errorf("spark: map stage for shuffle %d: %w", sd.id, err)
		}
		// Stage barrier: report the completed map stage to the stage
		// observer (shuffleMapStages counts these; the graph tests fail a
		// node here).
		c.metrics.NotifyStage(fmt.Sprintf("shuffle-%d-map", sd.id))
	}
	return nil
}

// runResultStage runs the action's task once per partition of the final
// RDD, each attempt under task retry.
func runResultStage(c *Context, r anyRDD, task func(int, *taskContext) error) error {
	c.metrics.Stages.Add(1)
	c.metrics.SchedulingRounds.Add(1)
	tasks := make([]cluster.Task, 0, r.partitions())
	for p := 0; p < r.partitions(); p++ {
		p := p
		node := placeTask(c, r, p)
		tc := &taskContext{node: node, heap: c.heapFor(node), metrics: c.metrics, ctx: c}
		tasks = append(tasks, cluster.Task{Node: node, Fn: func() error {
			c.metrics.TasksLaunched.Add(1)
			return withTaskRetry(nil, task, p, tc)
		}})
	}
	if err := c.rt.RunTasks(tasks); err != nil {
		return err
	}
	c.metrics.NotifyStage("result")
	return nil
}

// placeTask prefers the partition's data locality, falling back to
// round-robin.
func placeTask(c *Context, r anyRDD, part int) int {
	if n := r.prefNode(part); n >= 0 && n < c.rt.Spec().Nodes {
		return n
	}
	return c.rt.NodeFor(part)
}

// withTaskRetry runs task for partition p of a stage — the map stage of
// shuffle sd, or the result stage when sd is nil — retrying transient
// failures like Spark's task-level retry. A panic in the task (a user
// function failing) is the task's error, naming the stage and the
// partition; like any non-transient failure it fails the job.
func withTaskRetry(sd *shuffleDep, task func(int, *taskContext) error, p int, tc *taskContext) error {
	var err error
	for i := 0; i < maxTaskFailures; i++ {
		err = runTask(sd, task, p, tc)
		if err == nil {
			return nil
		}
		var te *TransientError
		if !errors.As(err, &te) {
			return err
		}
	}
	return err
}

// runTask runs one attempt of task, turning a panic into its error. A map
// task's error names its partition, and runStages adds the shuffle's map
// stage; a result task's names both itself.
func runTask(sd *shuffleDep, task func(int, *taskContext) error, p int, tc *taskContext) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task %d panicked: %v", p, r)
			if sd == nil {
				err = fmt.Errorf("spark: result stage: %w", err)
			}
		}
	}()
	return task(p, tc)
}

// FailNode simulates the loss of a node: its cached blocks and shuffle
// outputs vanish. Subsequent jobs recompute from lineage — the fault
// tolerance RDDs were designed for.
func (c *Context) FailNode(node int) {
	c.blocks.dropNode(node)
	c.shuffles.dropNode(node)
}
