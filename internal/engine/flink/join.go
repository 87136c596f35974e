package flink

import (
	"fmt"
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
// a hash join: one input builds a table per consumer partition, the other
// probes it as it streams in, and the matches flow on in batches of
// exec.batch.size — pipelined on the probe side like Flink's hybrid hash
// join. The left input builds, unless exactly one input is on an
// iteration's static path (see iterScope): then that input builds, and when
// it was built before the step function ran, its tables are built on the
// iteration run's first superstep and probed in place by every later one —
// Flink's BuildFirstCachedJoinDriver / BuildSecondCachedJoinDriver — so a
// superstep shuffles only its dynamic input.
func Join[L, R any, K comparable](left *DataSet[L], right *DataSet[R],
	lk func(L) K, rk func(R) K, q int) *DataSet[core.Pair[K, Joined[L, R]]] {
	if q <= 0 {
		q = left.env.parallelism
	}
	parents := []planParent{{ds: left, exchange: true}, {ds: right, exchange: true}}
	if left.scope != nil && right.scope == nil {
		return hashJoin(right, left, rk, lk, q, parents, func(k K, r R, l L) core.Pair[K, Joined[L, R]] {
			return core.KV(k, Joined[L, R]{Left: l, Right: r})
		})
	}
	return hashJoin(left, right, lk, rk, q, parents, func(k K, l L, r R) core.Pair[K, Joined[L, R]] {
		return core.KV(k, Joined[L, R]{Left: l, Right: r})
	})
}

// hashJoin wires the two-input exchange of a hash join: both inputs route by
// key hash to q consumer tasks; each consumer drains the build side into its
// table, then streams the probe side through it, emitting join(k, b, p) per
// match. When build is static and probe is on an iteration's dynamic path,
// the tables live in the iteration run's scope: only its first superstep
// shuffles and builds them.
func hashJoin[B, P any, K comparable, U any](build *DataSet[B], probe *DataSet[P],
	bk func(B) K, pk func(P) K, q int, parents []planParent,
	join func(K, B, P) U) *DataSet[U] {

	e := build.env
	ds := newDataSet[U](e, []string{"Join"}, core.OpJoin, q, nil, parents...)
	bCodec := serde.Of[B](e.style)
	pCodec := serde.Of[P](e.style)
	e.metrics.CodecFallbacks.Add(int64(bCodec.Fallbacks + pCodec.Fallbacks))
	sc := probe.scope
	cached := sc != nil && build.scope == nil && build.id <= sc.outer
	width := core.ExecBatch(e.conf)

	ds.produce = func(ctx *jobCtx, sinks []partSink[U]) error {
		// tables are the cached build side when there is one; fresh is
		// whether this run drains the build side (into tables, if cached).
		var tables []*joinTable[K, B]
		fresh := true
		if cached {
			slot, isNew, err := sc.cachedJoin(build.id, q)
			if err != nil {
				return err
			}
			if isNew {
				slot.tables = make([]*joinTable[K, B], q)
			}
			var ok bool
			if tables, ok = slot.tables.([]*joinTable[K, B]); !ok {
				return fmt.Errorf("flink: the iteration step changed its plan: the cached join over DataSet %d now has another key type", build.id)
			}
			fresh = isNew
		}
		set := e.shuffleSet
		var bchans []chan shuffle.Packet
		if fresh {
			bchans = ctx.makeChannels(build.parallelism, q)
			if err := produceSide(ctx, build, bCodec, bchans, set, func(v B) int {
				return int(core.HashKey(bk(v)) % uint64(q))
			}); err != nil {
				return err
			}
		}
		pchans := ctx.makeChannels(probe.parallelism, q)
		if err := produceSide(ctx, probe, pCodec, pchans, set, func(v P) int {
			return int(core.HashKey(pk(v)) % uint64(q))
		}); err != nil {
			return err
		}

		for part := 0; part < q; part++ {
			part := part
			node := ctx.place(part, nil)
			ctx.addTask(node, func() error {
				out := sinks[part]
				var t *joinTable[K, B]
				if fresh {
					// Drain the build side first (its channels close when
					// all its producers finish), then build the table.
					var recs []B
					if err := drainSide(e, node, bchans[part], bCodec, set, func(batch []B) error {
						recs = append(recs, batch...)
						return nil
					}); err != nil {
						// Still drain the probe side so its producers can finish.
						for pkt := range pchans[part] {
							pkt.Block.Release()
						}
						return endFailed(ctx, out, err)
					}
					t = newJoinTable(recs, bk)
					if tables != nil {
						tables[part] = t
					}
				} else {
					t = tables[part]
				}
				// Stream the probe side through the table; matches gather in
				// one batch buffer that is pushed whenever it fills.
				buf := make([]U, 0, width)
				err := drainSide(e, node, pchans[part], pCodec, set, func(batch []P) error {
					for _, p := range batch {
						k := pk(p)
						for _, b := range t.group(k) {
							buf = append(buf, join(k, b, p))
							if len(buf) == width {
								if err := out.push(buf); err != nil {
									return err
								}
								buf = buf[:0]
							}
						}
					}
					return nil
				})
				if err != nil {
					return endFailed(ctx, out, err)
				}
				return flushAndClose(ctx, out, buf)
			})
		}
		return nil
	}
	return ds
}

// joinTable is one consumer partition's build side: its records laid out
// grouped by key in one backing array, the groups found through one index
// of the distinct keys — a fixed number of allocations however many keys
// the partition holds.
type joinTable[K comparable, B any] struct {
	index map[K]int32
	// bounds[g] and bounds[g+1] delimit group g in recs.
	bounds []int32
	recs   []B
}

// newJoinTable groups recs by key, keeping arrival order within a key.
func newJoinTable[K comparable, B any](recs []B, key func(B) K) *joinTable[K, B] {
	t := &joinTable[K, B]{index: make(map[K]int32)}
	group := make([]int32, len(recs))
	for i, r := range recs {
		k := key(r)
		g, ok := t.index[k]
		if !ok {
			g = int32(len(t.index))
			t.index[k] = g
		}
		group[i] = g
	}
	// A counting sort: bounds[g+2] counts group g, and the prefix sums turn
	// bounds[g+1] into g's start. Placing g's records advances bounds[g+1]
	// to g's end, which is group g+1's start, so afterwards bounds[g] is
	// g's start and bounds[g+1] its end.
	n := len(t.index)
	t.bounds = make([]int32, n+2)
	for _, g := range group {
		t.bounds[g+2]++
	}
	for g := 2; g < len(t.bounds); g++ {
		t.bounds[g] += t.bounds[g-1]
	}
	t.recs = make([]B, len(recs))
	for i, g := range group {
		t.recs[t.bounds[g+1]] = recs[i]
		t.bounds[g+1]++
	}
	t.bounds = t.bounds[:n+1]
	return t
}

// group returns the build records with key k, nil when there are none.
func (t *joinTable[K, B]) group(k K) []B {
	g, ok := t.index[k]
	if !ok {
		return nil
	}
	return t.recs[t.bounds[g]:t.bounds[g+1]]
}

// CoGroup groups both inputs by key and applies f once per key present on
// either side. When mustFit is set the left side is held with MustAcquire
// semantics — the delta-iteration solution set behaviour whose exhaustion
// crashes the job (the paper's Table VII "no" entries). Both sides route by
// key hash to q consumer tasks; each consumer gathers the left side and the
// right side, then emits f per key.
func CoGroup[L, R any, K comparable, U any](left *DataSet[L], right *DataSet[R],
	lk func(L) K, rk func(R) K, q int, mustFit bool,
	f func(K, []L, []R) []U) *DataSet[U] {
	if q <= 0 {
		q = left.env.parallelism
	}
	e := left.env
	ds := newDataSet[U](e, []string{"CoGroup"}, core.OpCoGroup, q, nil,
		planParent{ds: left, exchange: true}, planParent{ds: right, exchange: true})
	lCodec := serde.Of[L](e.style)
	rCodec := serde.Of[R](e.style)
	e.metrics.CodecFallbacks.Add(int64(lCodec.Fallbacks + rCodec.Fallbacks))

	ds.produce = func(ctx *jobCtx, sinks []partSink[U]) error {
		lchans := ctx.makeChannels(left.parallelism, q)
		rchans := ctx.makeChannels(right.parallelism, q)
		set := e.shuffleSet

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
				// Drain the left side first (its channel closes when all
				// producers finish), then the right side.
				if err := drainSide(e, node, lchans[part], lCodec, set, func(batch []L) error {
					for _, v := range batch {
						k := lk(v)
						if err := note(k); err != nil {
							return err
						}
						builds[k] = append(builds[k], v)
					}
					return nil
				}); err != nil {
					// Still drain the right side so its producers can finish
					// (the Table VII MustAcquire failure lands here).
					for pkt := range rchans[part] {
						pkt.Block.Release()
					}
					return endFailed(ctx, sinks[part], err)
				}
				if err := drainSide(e, node, rchans[part], rCodec, set, func(batch []R) error {
					for _, v := range batch {
						k := rk(v)
						if err := note(k); err != nil {
							return err
						}
						probes[k] = append(probes[k], v)
					}
					return nil
				}); err != nil {
					return endFailed(ctx, sinks[part], err)
				}
				var outRecs []U
				err := guard(func() error {
					for _, k := range order {
						outRecs = append(outRecs, f(k, builds[k], probes[k])...)
					}
					return nil
				})
				if mustFit {
					pool.Release(len(order) / keysPerSegment)
				}
				if err != nil {
					return endFailed(ctx, sinks[part], err)
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

// drainSide consumes one input's packets on a consumer task, handing each
// decoded batch to each and accounting reads local vs remote by the producing
// node each packet carries. On error — each's, or a panic in it — it keeps
// draining the channel (producers block on the bounded sends, and RunTasks
// only returns once every task finishes), then reports the first error.
func drainSide[T any](e *Env, node int, ch <-chan shuffle.Packet, codec serde.Codec[T],
	set shuffle.Settings, each func([]T) error) error {
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
		failed = guard(func() error { return each(recs) })
	}
	return failed
}
