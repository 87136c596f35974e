package flink

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/serde"
	"repro/internal/shuffle"
)

// Joined is the result element of an inner join.
type Joined[V, W any] struct {
	Left  V
	Right W
}

// Join inner-joins two DataSets on extracted keys over q partitions using
// a hash join: the left side builds, the right side probes as it streams
// in — pipelined on the probe side like Flink's hybrid hash join.
func Join[L, R any, K comparable](left *DataSet[L], right *DataSet[R],
	lk func(L) K, rk func(R) K, q int) *DataSet[core.Pair[K, Joined[L, R]]] {
	if q <= 0 {
		q = left.env.curParallelism()
	}
	return coGroupInternal(left, right, lk, rk, q, "Join", core.OpJoin, false,
		func(k K, ls []L, rs []R) []core.Pair[K, Joined[L, R]] {
			var out []core.Pair[K, Joined[L, R]]
			for _, l := range ls {
				for _, r := range rs {
					out = append(out, core.KV(k, Joined[L, R]{Left: l, Right: r}))
				}
			}
			return out
		})
}

// CoGroup groups both inputs by key and applies f once per key present on
// either side. When mustFitInMemory is set the left side is held with
// MustAcquire semantics — the delta-iteration solution set behaviour whose
// exhaustion crashes the job (the paper's Table VII "no" entries).
func CoGroup[L, R any, K comparable, U any](left *DataSet[L], right *DataSet[R],
	lk func(L) K, rk func(R) K, q int, mustFitInMemory bool,
	f func(K, []L, []R) []U) *DataSet[U] {
	if q <= 0 {
		q = left.env.curParallelism()
	}
	return coGroupInternal(left, right, lk, rk, q, "CoGroup", core.OpCoGroup, mustFitInMemory, f)
}

// coGroupInternal wires the two-input exchange: both sides route by key
// hash to q consumer tasks; each consumer gathers the left side (build)
// and the right side, then emits f per key.
func coGroupInternal[L, R any, K comparable, U any](left *DataSet[L], right *DataSet[R],
	lk func(L) K, rk func(R) K, q int, label string, kind core.OpKind, mustFit bool,
	f func(K, []L, []R) []U) *DataSet[U] {

	e := left.env
	ds := &DataSet[U]{
		env:         e,
		id:          int(e.nextID.Add(1)),
		chain:       []string{label},
		kind:        kind,
		parallelism: q,
		parents: []planParent{
			{ds: left, exchange: true},
			{ds: right, exchange: true},
		},
	}
	lCodec := serde.Of[L](e.style)
	rCodec := serde.Of[R](e.style)
	e.metrics.CodecFallbacks.Add(int64(lCodec.Fallbacks + rCodec.Fallbacks))

	ds.produce = func(ctx *jobCtx, sinks []partSink[U]) error {
		lchans := ctx.makeChannels(left.parallelism, q)
		rchans := ctx.makeChannels(right.parallelism, q)
		// One settings capture covers both sides and both drains: producers
		// and consumers of one exchange must agree even if the adaptive
		// planner rewrites the configuration while the job runs.
		set := e.curShuffleSettings()

		if err := produceSide(ctx, left, lCodec, lchans, set, func(v L) int {
			return int(core.HashKey(lk(v)) % uint64(q))
		}); err != nil {
			return err
		}
		if err := produceSide(ctx, right, rCodec, rchans, set, func(v R) int {
			return int(core.HashKey(rk(v)) % uint64(q))
		}); err != nil {
			return err
		}

		for part := 0; part < q; part++ {
			part := part
			node := ctx.place(part, nil)
			ctx.addTask(node, func() error {
				pool := e.managed[node]
				builds := make(map[K][]L)
				probes := make(map[K][]R)
				var order []K
				seen := make(map[K]bool)
				note := func(k K) error {
					if !seen[k] {
						seen[k] = true
						order = append(order, k)
						if mustFit && len(order)%keysPerSegment == 0 {
							if err := pool.MustAcquire(1, "CoGroup (solution set)"); err != nil {
								return err
							}
						}
					}
					return nil
				}
				// Drain the build side first (its channel closes when all
				// producers finish), then the probe side.
				if err := drainSide(e, node, lchans[part], lCodec, set, func(v L) error {
					k := lk(v)
					if err := note(k); err != nil {
						return err
					}
					builds[k] = append(builds[k], v)
					return nil
				}); err != nil {
					// Still drain the probe side so its producers can finish
					// (the Table VII MustAcquire failure lands here).
					for range rchans[part] {
					}
					return endFailed(ctx, sinks[part], err)
				}
				if err := drainSide(e, node, rchans[part], rCodec, set, func(v R) error {
					k := rk(v)
					if err := note(k); err != nil {
						return err
					}
					probes[k] = append(probes[k], v)
					return nil
				}); err != nil {
					return endFailed(ctx, sinks[part], err)
				}
				var outRecs []U
				for _, k := range order {
					outRecs = append(outRecs, f(k, builds[k], probes[k])...)
				}
				if mustFit {
					pool.Release(len(order) / keysPerSegment)
				}
				return flushAndClose(ctx, sinks[part], outRecs)
			})
		}
		return nil
	}
	return ds
}

// produceSide wires one input of a two-input operator into its channels
// through the shared shuffle core. Both inputs of a hash join/co-group are
// pipelined hash repartitions on every strategy — the consumer builds hash
// tables, so there is no order to sort by.
func produceSide[T any](ctx *jobCtx, parent *DataSet[T], codec serde.Codec[T],
	chans []chan shuffle.Packet, set shuffle.Settings, route func(T) int) error {
	e := parent.env
	q := len(chans)
	set.Kind = shuffle.Hash
	var open atomic.Int64
	open.Store(int64(parent.parallelism))
	sinks := make([]partSink[T], parent.parallelism)
	for p := 0; p < parent.parallelism; p++ {
		fromNode := ctx.place(p, parent.pref)
		w := shuffle.NewWriter(shuffle.Spec[T]{
			NumParts: q,
			Codec:    codec,
			Route:    route,
		}, shuffle.Env{
			Settings: set,
			Metrics:  e.metrics,
			Emit: func(dst int, b shuffle.Block) error {
				if b.Len() == 0 {
					b.Release()
					return nil
				}
				e.metrics.AddShuffleWrite(int64(b.Len()), b.Raw, false)
				chans[dst] <- shuffle.Packet{From: fromNode, Block: b}
				return nil
			},
		})
		sinks[p] = partSink[T]{
			push: func(batch []T) error {
				return w.WriteBatch(batch)
			},
			close: func() error {
				err := w.Close()
				// Close the channels even on error — see newExchange: a
				// skipped close wedges the consumer tasks.
				if open.Add(-1) == 0 {
					for _, ch := range chans {
						close(ch)
					}
				}
				return err
			},
		}
	}
	return parent.produce(ctx, sinks)
}

// drainSide consumes one input's packets on a consumer task, accounting
// reads local vs remote by the producing node each packet carries. On error
// it keeps draining the channel — producers block on the bounded sends, and
// RunTasks only returns once every task finishes — then reports the first
// error.
func drainSide[T any](e *Env, node int, ch <-chan shuffle.Packet, codec serde.Codec[T],
	set shuffle.Settings, each func(T) error) error {
	var failed error
	for pkt := range ch {
		if failed != nil {
			pkt.Block.Release()
			continue
		}
		e.metrics.AddShuffleRead(int64(pkt.Block.Len()), pkt.From == node)
		raw, err := shuffle.Unpack(set, pkt.Block.Bytes())
		if err != nil {
			pkt.Block.Release()
			failed = err
			continue
		}
		recs, err := serde.DecodeAllN(codec, raw, int(pkt.Block.Recs))
		pkt.Block.Release()
		if err != nil {
			failed = err
			continue
		}
		for _, v := range recs {
			if err := each(v); err != nil {
				failed = err
				break
			}
		}
	}
	return failed
}
