package dataflow

import (
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine/flink"
	"repro/internal/engine/spark"
)

// Operator fusion: consecutive narrow operators (Map, Filter, FlatMap)
// collapse into ONE compiled kernel and lower as ONE physical operator per
// backend — spark.FusedNarrow, flink.FusedChain, or one per-split mrFrag step —
// instead of one engine node and one intermediate slice per operator. The
// logical plan is untouched: every operator still gets its Node, so PlanOf
// and the per-engine plan renderings are unchanged; only the lowering
// collapses.
//
// The kernel is BATCH-AT-A-TIME by default: the driver cuts each partition
// into exec.batch.size-record batches (zero-copy subslices of the input)
// and the compiled chain is invoked once per batch, not once per record.
// Map/FlatMap compact live records into per-kernel scratch; Filter flips
// entries in the batch's selection vector and moves no records at all. One
// closure call and one selection scan per N records replaces N closure
// calls — the dispatch-amortization the paper's per-record pipelines lack.
// SetVectorized(false) falls back to the original record-at-a-time CPS
// kernels for honest baselining (ext9/ext11's batch=1 arm).
//
// Both kernel shapes are built in continuation-passing style with erased
// types: each operator contributes a step that turns its output sink into
// its input consumer (both boxed as any) — func(U)→func(T) per record,
// func(*recBatch[U])→func(*recBatch[T]) per batch — and composing steps
// from the chain's tail to its root yields one closure from the root's
// record type to the final sink. The root-side typed work — cutting a []R
// partition into batches, fetching the root's engine rep — is captured when
// the chain starts, where R is statically known, so execution does one type
// assertion per partition and none per record. Engines see a single
// contract either way: their sink is func([]U) receiving compacted batches
// (borrowed until the call returns), and drive pushes a boxed []R through
// the compiled consumer.

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

// erasedLoad is a type-erased mrFrag load: the split count, part(i)
// yielding split i's records as a boxed []R when called, preferred nodes
// and the charged input bytes.
type erasedLoad = func() (n int, part func(i int) any, pref func(int) int, bytes int64, err error)

// fchain records the fusible narrow chain ending at its owning dataset.
type fchain struct {
	// nodes are the fused operators' logical nodes in chain order; the
	// last entry belongs to the owning dataset.
	nodes []*Node
	// compile turns the chain's output sink (func(U), boxed) into its
	// input consumer (func(R), boxed) — the record-at-a-time kernel.
	compile func(sink any) any
	// vcompile turns the chain's output batch sink (func(*recBatch[U]),
	// boxed) into its input batch consumer (func(*recBatch[R]), boxed) —
	// the vectorized kernel. Compiled once per serial record stream, so
	// per-instance scratch is single-threaded.
	vcompile func(sink any) any
	// drive iterates a boxed []R through a boxed func(R).
	drive func(recs, feed any)
	// vdrive cuts a boxed []R into width-record batches (subslice views,
	// no copying) and feeds each to a boxed func(*recBatch[R]).
	vdrive func(recs, feed any, width int)
	// Root engine-rep accessors, captured where R is known. Lowering the
	// root goes through repOf, so shared roots still lower exactly once.
	sparkRoot func() (any, error)
	flinkRoot func() (any, error)
	mrRoot    func() (erasedLoad, error)
}

// newChain starts a chain whose first fused operator consumes root.
func newChain[R any](root *Dataset[R], node *Node, step, vstep func(sink any) any) *fchain {
	return &fchain{
		nodes:    []*Node{node},
		compile:  step,
		vcompile: vstep,
		drive: func(recs, feed any) {
			rs := recs.([]R)
			fd := feed.(func(R))
			for _, v := range rs {
				fd(v)
			}
		},
		vdrive: func(recs, feed any, width int) {
			rs := recs.([]R)
			fd := feed.(func(*recBatch[R]))
			b := &recBatch[R]{}
			for i := 0; i < len(rs); i += width {
				j := i + width
				if j > len(rs) {
					j = len(rs)
				}
				b.recs = rs[i:j]
				b.sel = nil
				fd(b)
			}
		},
		sparkRoot: func() (any, error) { return repOf[*spark.RDD[R]](root) },
		flinkRoot: func() (any, error) { return repOf[*flink.DataSet[R]](root) },
		mrRoot: func() (erasedLoad, error) {
			in, err := repOf[*mrFrag[R]](root)
			if err != nil {
				return nil, err
			}
			return func() (int, func(int) any, func(int) int, int64, error) {
				sp, err := in.load()
				if err != nil {
					return 0, nil, nil, 0, err
				}
				return sp.n, func(i int) any { return sp.part(i) }, sp.pref, sp.bytes, nil
			}, nil
		},
	}
}

// extendChain grows d's chain with one more operator, or starts a new
// chain at d. A dataset already marked Cached() is a fusion barrier: the
// chain starts after it so the engine still sees the node to persist.
func extendChain[T any](d *Dataset[T], node *Node, step, vstep func(sink any) any) *fchain {
	if fc := d.fuse; fc != nil && !d.node.Cached {
		return &fchain{
			nodes:     append(append([]*Node{}, fc.nodes...), node),
			compile:   func(sink any) any { return fc.compile(step(sink)) },
			vcompile:  func(sink any) any { return fc.vcompile(vstep(sink)) },
			drive:     fc.drive,
			vdrive:    fc.vdrive,
			sparkRoot: fc.sparkRoot,
			flinkRoot: fc.flinkRoot,
			mrRoot:    fc.mrRoot,
		}
	}
	return newChain(d, node, step, vstep)
}

// fusedLabel names the collapsed operator, e.g. "Fused[FlatMap→Map]".
func fusedLabel(nodes []*Node) string {
	labels := make([]string, len(nodes))
	for i, n := range nodes {
		labels[i] = n.Label
	}
	return "Fused[" + strings.Join(labels, "→") + "]"
}

// fusionOff, when set, makes every lowering fall back to the per-operator
// path. Only the raw-speed experiments (ext9/ext11) flip it, to measure
// fusion's contribution against the unfused baseline; flip it only between
// jobs.
var fusionOff atomic.Bool

// SetFusion toggles operator fusion (on by default) and returns the
// previous setting. Benchmark plumbing only.
func SetFusion(on bool) bool {
	return !fusionOff.Swap(!on)
}

// vectorOff, when set, compiles fused chains as record-at-a-time CPS
// closures instead of batch kernels — the pre-vectorization execution
// model, kept for honest baselining (ext11's batch=1 arm measures it).
// Flip it only between jobs.
var vectorOff atomic.Bool

// SetVectorized toggles batch-at-a-time kernel compilation (on by default)
// and returns the previous setting. Benchmark plumbing only.
func SetVectorized(on bool) bool {
	return !vectorOff.Swap(!on)
}

// batchWidth resolves the execution batch width for s: exec.batch.size
// when positive (explicit or planner-derived), DefaultExecBatchSize
// otherwise. Sessions opened directly over a Backend (NewSession) have no
// Config of their own and fall back to the engine handle's.
func (s *Session) batchWidth() int {
	conf := s.conf
	if conf == nil {
		if h, ok := s.handle().(interface{ Conf() *core.Config }); ok {
			conf = h.Conf()
		}
	}
	return core.ExecBatch(conf)
}

// engineKernel adapts the chain to the single contract the engines see —
// sink func([]U) receiving compacted non-empty batches borrowed until the
// call returns, drive pushing one boxed []R partition through the compiled
// consumer. Vectorized mode composes the batch kernels with a terminal
// compaction (emitting the batch's own storage when nothing was filtered —
// zero copy); record mode adapts the CPS kernel through a one-record
// window, preserving the old per-record dispatch for baselining.
func engineKernel[U any](fc *fchain, width int) (
	drive func(recs, feed any), compile func(sink any) any) {
	if vectorOff.Load() {
		return fc.drive, func(sink any) any {
			emit := sink.(func([]U))
			var one [1]U
			return fc.compile(func(u U) {
				one[0] = u
				emit(one[:1])
			})
		}
	}
	drive = func(recs, feed any) { fc.vdrive(recs, feed, width) }
	compile = func(sink any) any {
		emit := sink.(func([]U))
		var scratch []U // per-instance: compile runs once per serial stream
		return fc.vcompile(func(b *recBatch[U]) {
			if b.sel == nil {
				if len(b.recs) > 0 {
					emit(b.recs)
				}
				return
			}
			scratch = scratch[:0]
			for _, i := range b.sel {
				scratch = append(scratch, b.recs[i])
			}
			if len(scratch) > 0 {
				emit(scratch)
			}
		})
	}
	return drive, compile
}

// lowerFused lowers d's chain of ≥2 narrow operators as one physical
// operator. It reports handled=false when fusion does not apply — a short
// or absent chain, an intermediate marked Cached() after construction, or
// fusion switched off — and the caller falls back to per-operator lowering.
func lowerFused[U any](d *Dataset[U]) (rep any, handled bool, err error) {
	fc := d.fuse
	if fc == nil || len(fc.nodes) < 2 || fusionOff.Load() {
		return nil, false, nil
	}
	// Cached() can be called any time before the first action; a hint that
	// landed on an intermediate after the chain was built voids it.
	for _, n := range fc.nodes[:len(fc.nodes)-1] {
		if n.Cached {
			return nil, false, nil
		}
	}
	name := fusedLabel(fc.nodes)
	drive, compile := engineKernel[U](fc, d.s.batchWidth())
	switch d.s.kind() {
	case Spark:
		in, err := fc.sparkRoot()
		if err != nil {
			return nil, true, err
		}
		return cacheHint(d.node, spark.FusedNarrow[U](in, name, d.node.Kind, drive, compile)), true, nil
	case Flink:
		in, err := fc.flinkRoot()
		if err != nil {
			return nil, true, err
		}
		return flink.FusedChain[U](in, name, d.node.Kind, drive, compile), true, nil
	default:
		load, err := fc.mrRoot()
		if err != nil {
			return nil, true, err
		}
		c := mrCluster(d.s)
		return &mrFrag[U]{c: c, load: func() (mrSplits[U], error) {
			n, part, pref, bytes, err := load()
			if err != nil {
				return mrSplits[U]{}, err
			}
			// One kernel instance per split, compiled where the split is
			// evaluated: in its map task.
			return mrSplits[U]{n: n, part: func(i int) []U {
				var out []U
				feed := compile(func(us []U) { out = append(out, us...) })
				drive(part(i), feed)
				return out
			}, pref: pref, bytes: bytes}, nil
		}}, true, nil
	}
}
