package flink

import (
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/shuffle"
)

// jobCtx accumulates the physical tasks and exchange channels of one job
// while the DataSet graph is unfolded; everything is then scheduled in a
// single wave.
type jobCtx struct {
	env      *Env
	tasks    []cluster.Task
	perNode  []int
	channels int
	local    bool // iteration-internal subjob: direct goroutines
	// failed is set by the first task that fails (endFailed): the job's
	// result is that error, so what still closes only passes end-of-input on.
	failed atomic.Bool
}

func newJobCtx(e *Env) *jobCtx {
	return &jobCtx{env: e, perNode: make([]int, e.rt.Spec().Nodes)}
}

// place picks the node of a task for partition p, honoring locality.
func (ctx *jobCtx) place(p int, pref func(int) int) int {
	if pref != nil {
		if n := pref(p); n >= 0 && n < len(ctx.perNode) {
			return n
		}
	}
	return ctx.env.nodeOf(p)
}

// nodeOfTask returns the default node of a partition index (used for
// transfer accounting).
func (ctx *jobCtx) nodeOfTask(p int) int { return ctx.env.nodeOf(p) }

// addTask registers a pipelined task pinned to a node.
func (ctx *jobCtx) addTask(node int, fn func() error) {
	ctx.perNode[node]++
	ctx.tasks = append(ctx.tasks, cluster.Task{Node: node, Fn: fn})
}

// makeChannels allocates the bounded buffers of one exchange. Capacity per
// channel derives from the configured network buffer pool spread over the
// logical connections, at least 2 — small pools mean tight backpressure.
// Packets carry the producing node for the reader-side locality accounting.
func (ctx *jobCtx) makeChannels(p, q int) []chan shuffle.Packet {
	ctx.channels += p * q
	per := ctx.env.pool.Count() / max(1, p*q)
	if per < 2 {
		per = 2
	}
	if per > 256 {
		per = 256
	}
	chans := make([]chan shuffle.Packet, q)
	for i := range chans {
		chans[i] = make(chan shuffle.Packet, per)
	}
	return chans
}

// submit validates slots and network buffers, then launches every task of
// the pipeline at once — the single scheduling round that distinguishes
// Flink's model from Spark's stage waves.
func (ctx *jobCtx) submit() error {
	e := ctx.env
	if ctx.local {
		// Iteration-internal subjob: the dataflow is already scheduled;
		// supersteps reuse it with plain goroutines and no slot checks.
		var wg sync.WaitGroup
		errs := make([]error, len(ctx.tasks))
		for i, t := range ctx.tasks {
			wg.Add(1)
			go func(i int, fn func() error) {
				defer wg.Done()
				errs[i] = fn()
			}(i, t.Fn)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	slots := e.effectiveSlots()
	maxPerNode := 0
	for _, n := range ctx.perNode {
		if n > maxPerNode {
			maxPerNode = n
		}
	}
	if maxPerNode > slots {
		return &ErrInsufficientSlots{NeededPerNode: maxPerNode, Slots: slots}
	}
	required := netsim.RequiredBuffers(maxPerNode, e.rt.Spec().Nodes)
	if ctx.channels == 0 {
		required = 0 // single-chain jobs need no exchange buffers
	}
	if err := e.pool.Reserve(required); err != nil {
		return err
	}
	e.metrics.SchedulingRounds.Add(1)
	e.metrics.Stages.Add(1) // a pipelined job is one stage, always
	e.metrics.TasksLaunched.Add(int64(len(ctx.tasks)))
	if err := e.rt.RunTasks(ctx.tasks); err != nil {
		return err
	}
	// A pipelined plan has no internal barriers: job completion is the only
	// boundary it reports to the stage observer.
	e.metrics.NotifyStage("pipeline")
	return nil
}

// effectiveSlots is the per-node concurrency actually available: the
// configured task slots clamped to the runtime's worker pool.
func (e *Env) effectiveSlots() int {
	if e.slotsPerNode < e.rt.SlotsPerNode() {
		return e.slotsPerNode
	}
	return e.rt.SlotsPerNode()
}

// runJob unfolds the graph into tasks and executes the pipeline, feeding
// every partition of d into sink (one call per batch, from that
// partition's task goroutine).
func runJob[T any](d *DataSet[T], action string, sink func(p int, batch []T) error) error {
	endSpan := d.env.timeline.StartSpan(action)
	defer endSpan()
	ctx := newJobCtx(d.env)
	return runInto(ctx, d, sink)
}

// runInto is runJob without the timeline span, shared with the iteration
// runner (whose ctx may be local).
func runInto[T any](ctx *jobCtx, d *DataSet[T], sink func(p int, batch []T) error) error {
	sinks := make([]partSink[T], d.parallelism)
	for p := range sinks {
		p := p
		sinks[p] = partSink[T]{
			push:  func(batch []T) error { return sink(p, batch) },
			close: func() error { return nil },
		}
	}
	if err := d.produce(ctx, sinks); err != nil {
		return err
	}
	return ctx.submit()
}

// runLocal executes a sub-dataflow with direct goroutines, returning the
// materialized partitions. Iterations use it for each superstep: the
// operators were scheduled once; supersteps reuse them.
func runLocal[T any](d *DataSet[T]) ([][]T, error) {
	ctx := newJobCtx(d.env)
	ctx.local = true
	parts := make([][]T, d.parallelism)
	var mu sync.Mutex
	err := runInto(ctx, d, func(p int, batch []T) error {
		mu.Lock()
		parts[p] = append(parts[p], batch...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return parts, nil
}

// ForEach executes the pipeline, feeding each partition's batches to fn
// from that partition's task goroutine — the generic sink for callers that
// stream results somewhere themselves.
func ForEach[T any](d *DataSet[T], action string, fn func(p int, batch []T) error) error {
	return runJob(d, action, fn)
}

// Collect gathers every record on the driver, in partition order.
func Collect[T any](d *DataSet[T]) ([]T, error) {
	parts := make([][]T, d.parallelism)
	var mu sync.Mutex
	err := runJob(d, "Collect", func(p int, batch []T) error {
		mu.Lock()
		parts[p] = append(parts[p], batch...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []T
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Count returns the record count (filter → count in the paper's Grep).
func Count[T any](d *DataSet[T]) (int64, error) {
	counts := make([]int64, d.parallelism)
	err := runJob(d, "Count", func(p int, batch []T) error {
		counts[p] += int64(len(batch)) // single goroutine per p
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	return total, nil
}
