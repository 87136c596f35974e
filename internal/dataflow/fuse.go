package dataflow

import (
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/engine/flink"
	"repro/internal/engine/spark"
)

// Narrow operators (Map, Filter, FlatMap) lower through ONE batch kernel on
// every engine, and consecutive ones collapse into ONE compiled kernel and
// ONE physical operator per engine — spark.FusedNarrow, flink.FusedChain, or
// one per-split mrFrag step — instead of one engine node and one intermediate
// slice per operator. A single operator is a chain of one: it runs the same
// code and keeps its own label and kind. Every operator still gets its Node;
// the chain renders in PlanOf as the one operator it lowers to, e.g.
// "Fused[FlatMap→MapToPair]".
//
// The kernel is batch-at-a-time: the driver cuts each partition into
// exec.batch.size-record batches (zero-copy subslices of the input) and the
// compiled chain is invoked once per batch, not once per record; width 1 is
// record-at-a-time execution through the same code. Map/FlatMap compact live
// records into per-kernel scratch; Filter flips entries in the batch's
// selection vector and moves no records at all. One closure call and one
// selection scan per N records replaces N closure calls — the
// dispatch-amortization the paper's per-record pipelines lack. FlatMap's one
// kernel is FlatMapAppend's: the user function is handed that scratch as dst
// and appends the record's expansion to it (Flink's Collector), so the
// kernel asks for no slice per record; only FlatMap's adapter, whose function
// returns one, still builds it.
//
// The kernel is built in continuation-passing style with erased types: each
// operator contributes a step that turns its output sink into its input
// consumer (both boxed as any), func(*recBatch[U])→func(*recBatch[T]), and
// composing steps from the chain's tail to its root yields one closure from
// the root's record type to the final sink. The root-side typed work —
// cutting a []R the root pushed into batches, fetching the root's engine
// rep — is captured when the chain starts, where R is statically known, so
// execution does one type assertion per stream and none per push or record.
//
// Who owns a batch. Inside the chain, an operator's output batch is its own
// scratch: Map and FlatMap reset it at every input batch, and a FlatMapAppend
// function borrows it as dst only for the call that appends to it — it keeps
// neither dst nor a slice of it, because the next input batch overwrites
// them. Engines see a single contract (engineKernel):
// they instantiate the kernel once per serial record stream around their
// sink, func([]U) error, and push each []R the root yields through the
// instance. The sink receives compacted, non-empty batches that are BORROWED
// until the call returns: the storage is an operator's scratch and the next
// batch overwrites it, so a sink folds, encodes or copies what it keeps and
// never holds the slice. The contract starts at the source: TextFile and
// BinaryFile stream a split exec.batch.size records at a time through one
// reader buffer per task (dfs.File.LineBatches / FixedRecordBatches), so what
// the root pushes — into a kernel, or straight into a consumer when no
// narrow operator sits between — is borrowed on the same terms, and a split
// is never a slice either. Only the slices are borrowed. The records in them
// are the consumer's to keep: a chain's outputs are values, and a file
// source's lines and records are views of the stored file, which is never
// written again (package dfs). The sink is the stream's real consumer — spark's
// shuffle map writer or folding action, flink's downstream partSink
// (exchange writer, combiner, sorter, action), mapreduce's map function in
// the map task — so the chain's output never exists as a collection between
// the kernel and the operator that is about to fold it: that is the
// pipelining the paper credits both engines with, and a wordcount map task
// holds one batch of (word, 1) pairs instead of 1.4 M of them. The sink's
// first error ends the stream: later batches are not delivered, the driver
// stops cutting input, and every push reports that error.
//
// Where a partition is still gathered, and why: on spark when a streaming
// RDD (a fused chain, a file source) is persisted (the block manager stores
// whole partitions) or when its consumer is an operator or action that takes
// a partition as a slice (Collect, ForeachPartition, an unfused narrow
// child) — the compute newStreamRDD derives, the one place a stream's sink
// appends to a whole-partition slice;
// on flink where an operator is a pipeline breaker by definition
// (SortPartition, an iteration's superstep result, Collect); on mapreduce
// only where the driver reads a job's output back (collect, the iteration's
// staging step).

// recBatch is one in-flight batch between fused batch kernels: a borrowed
// record slice plus a selection vector (nil = all live). Filters narrow sel
// in place; Map/FlatMap consume live records and emit a fresh compacted
// batch from their own scratch.
type recBatch[T any] struct {
	recs []T
	sel  []int32 // live indices into recs, ascending; nil = all live
}

// forEachLive visits the live records of b in order.
func (b *recBatch[T]) forEachLive(fn func(T)) {
	if b.sel == nil {
		for _, v := range b.recs {
			fn(v)
		}
		return
	}
	for _, i := range b.sel {
		fn(b.recs[i])
	}
}

// erasedLoad is a type-erased mrFrag load: the split count, each(i, push)
// pushing split i's []R batches to push — a kernel instance's push side, a
// boxed func([]R) error — when called, preferred nodes and the charged input
// bytes.
type erasedLoad = func() (n int, each func(i int, push any) error, pref func(int) int, bytes int64, err error)

// fchain records the fusible narrow chain ending at its owning dataset.
type fchain struct {
	// nodes are the fused operators' logical nodes in chain order; the
	// last entry belongs to the owning dataset.
	nodes []*Node
	// compile turns the chain's output batch sink (func(*recBatch[U]),
	// boxed) into its input batch consumer (func(*recBatch[R]), boxed).
	// Compiled once per serial record stream, so per-instance scratch is
	// single-threaded.
	compile func(sink any) any
	// driver builds one kernel instance's push side around its compiled
	// feed (a boxed func(*recBatch[R])): push, a func([]R) error boxed as
	// any, cuts the slice it is handed into width-record batches (subslice
	// views, no copying) and feeds each through the instance's one
	// recBatch, stopping once *failed is set (the kernel's sink reported an
	// error), which it returns. A push allocates nothing.
	driver func(feed any, width int, failed *error) (push any)
	// Root engine-rep accessors, captured where R is known. Lowering the
	// root goes through repOf, so shared roots still lower exactly once.
	sparkRoot func() (any, error)
	flinkRoot func() (any, error)
	mrRoot    func() (erasedLoad, mrRenderer, error)
}

// newChain starts a chain whose first fused operator consumes root.
func newChain[R any](root *Dataset[R], node *Node, step func(sink any) any) *fchain {
	return &fchain{
		nodes:   []*Node{node},
		compile: step,
		driver: func(feed any, width int, failed *error) any {
			fd := feed.(func(*recBatch[R]))
			b := &recBatch[R]{}
			return func(rs []R) error {
				for i := 0; i < len(rs) && *failed == nil; i += width {
					b.recs = rs[i:min(i+width, len(rs))]
					b.sel = nil
					fd(b)
				}
				return *failed
			}
		},
		sparkRoot: func() (any, error) { return repOf[*spark.RDD[R]](root) },
		flinkRoot: func() (any, error) { return repOf[*flink.DataSet[R]](root) },
		mrRoot: func() (erasedLoad, mrRenderer, error) {
			in, err := repOf[*mrFrag[R]](root)
			if err != nil {
				return nil, nil, err
			}
			return func() (int, func(int, any) error, func(int) int, int64, error) {
				sp, err := in.load()
				if err != nil {
					return 0, nil, nil, 0, err
				}
				each := func(i int, push any) error { return sp.each(i, push.(func([]R) error)) }
				return sp.n, each, sp.pref, sp.bytes, nil
			}, in, nil
		},
	}
}

// extendChain grows d's chain with one more operator, or starts a new
// chain at d. A dataset already marked Cached() is a fusion barrier: the
// chain starts after it so the engine still sees the node to persist.
func extendChain[T any](d *Dataset[T], node *Node, step func(sink any) any) *fchain {
	if fc := d.fuse; fc != nil && !d.node.Cached {
		return &fchain{
			nodes:     append(append([]*Node{}, fc.nodes...), node),
			compile:   func(sink any) any { return fc.compile(step(sink)) },
			driver:    fc.driver,
			sparkRoot: fc.sparkRoot,
			flinkRoot: fc.flinkRoot,
			mrRoot:    fc.mrRoot,
		}
	}
	return newChain(d, node, step)
}

// narrow builds the dataset of one narrow operator over d. kernel is the
// operator's one implementation: given the downstream batch sink it returns
// the operator's batch consumer, holding whatever scratch it needs. The
// dataset lowers as the chain it extends, or — when a Cached() hint landed on
// one of that chain's intermediates after it was built, so the engine must
// see that node — as a chain of one rooted at d.
func narrow[T, U any](d *Dataset[T], kind core.OpKind, label string,
	kernel func(emit func(*recBatch[U])) func(*recBatch[T])) *Dataset[U] {
	out := &Dataset[U]{s: d.s, node: d.s.newNode(kind, label, d.node)}
	step := func(sink any) any { return kernel(sink.(func(*recBatch[U]))) }
	out.fuse = extendChain(d, out.node, step)
	out.lower = func() (any, error) {
		fc := out.fuse
		if slices.ContainsFunc(fc.nodes[:len(fc.nodes)-1], func(n *Node) bool { return n.Cached }) {
			fc = newChain(d, out.node, step)
		}
		return lowerFused(out, fc)
	}
	return out
}

// fusedLabel names the collapsed operator, e.g. "Fused[FlatMap→Map]"; a
// chain of one keeps the operator's own label.
func fusedLabel(nodes []*Node) string {
	if len(nodes) == 1 {
		return nodes[0].Label
	}
	labels := make([]string, len(nodes))
	for i, n := range nodes {
		labels[i] = n.Label
	}
	return "Fused[" + strings.Join(labels, "→") + "]"
}

// engineKernel adapts the chain to the single contract the engines see: a
// kernel constructor. Called once per serial record stream with the stream's
// sink — func([]U) error, receiving compacted non-empty batches borrowed
// until the call returns — it compiles one kernel instance (instances carry
// per-stream scratch) and returns its push side: a func([]R) error for the
// root's record type, boxed as any because U is all this side knows. The
// engine unboxes it once per stream, where it holds the typed root, and calls
// it with every batch the root yields — borrowed during the call, however
// many there are; push drives the batch through the instance and reports the
// sink's first error. A push allocates nothing: everything an instance needs
// it allocated when it was compiled.
// That error is latched: once the sink has failed no batch reaches it again,
// the driver stops cutting input, and every later push returns the error.
// The batch kernels are composed with a terminal compaction that emits the
// batch's own storage when nothing was filtered (zero copy) and otherwise
// gathers the live records into scratch sized once, at width.
func engineKernel[U any](fc *fchain, width int) func(sink func([]U) error) (push any) {
	return func(sink func([]U) error) any {
		k := &struct { // the instance's state, one allocation
			failed  error
			scratch []U
		}{}
		feed := fc.compile(func(b *recBatch[U]) {
			if k.failed != nil {
				return
			}
			out := b.recs
			if b.sel != nil {
				if k.scratch == nil {
					k.scratch = make([]U, 0, width)
				}
				out = k.scratch[:0]
				for _, i := range b.sel {
					out = append(out, b.recs[i])
				}
			}
			if len(out) > 0 {
				k.failed = sink(out)
			}
		})
		return fc.driver(feed, width, &k.failed)
	}
}

// lowerFused lowers the narrow chain fc ending at d as one physical operator.
func lowerFused[U any](d *Dataset[U], fc *fchain) (any, error) {
	name := fusedLabel(fc.nodes)
	kernel := engineKernel[U](fc, d.s.batchWidth())
	switch d.s.kind {
	case Spark:
		in, err := fc.sparkRoot()
		if err != nil {
			return nil, err
		}
		return cacheHint(d.node, spark.FusedNarrow(in, name, d.node.Kind, kernel)), nil
	case Flink:
		in, err := fc.flinkRoot()
		if err != nil {
			return nil, err
		}
		return flink.FusedChain(in, name, d.node.Kind, kernel), nil
	default:
		load, root, err := fc.mrRoot()
		if err != nil {
			return nil, err
		}
		c := mrCluster(d.s)
		// The chain runs in whichever map task reads the split.
		return &mrFrag[U]{c: c, kind: d.node.Kind, label: name, in: root, load: func() (mrSplits[U], error) {
			n, each, pref, bytes, err := load()
			if err != nil {
				return mrSplits[U]{}, err
			}
			// One kernel instance per split, compiled where the split is
			// evaluated — in its map task — around that task's consumer.
			return mrSplits[U]{n: n, each: func(i int, yield func([]U) error) error {
				return each(i, kernel(yield))
			}, pref: pref, bytes: bytes}, nil
		}}, nil
	}
}
