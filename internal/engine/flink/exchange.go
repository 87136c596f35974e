package flink

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/serde"
	"repro/internal/shuffle"
)

// recordConsumer is the receive side of an exchange for one partition:
// accept sees decoded batches as they arrive (pipelined with production),
// finish fires at end-of-input — the natural point for sort-based grouping
// to emit — and pushes what the consumer still holds. The exchange's task
// closes the downstream sink afterwards, whether finish failed or not.
type recordConsumer[T any] struct {
	accept func(batch []T) error
	finish func() error
}

// newExchange wires a repartitioning edge between parent (P producer
// partitions) and Q consumer partitions through the shared shuffle core.
//
// Producer side: each producing subtask owns a shuffle.Writer. Under the
// engine's default hash strategy records serialize into per-partition
// buffers of the configured size that flush over bounded channels as they
// fill — a full channel blocks the producer, which is the pipeline's
// backpressure. Under shuffle.strategy=sort a keyed edge (less != nil)
// buffers instead, spilling sorted runs when the managed-memory grant is
// refused, and ships merged segments at end-of-input — a pipeline breaker,
// which is exactly what a sort-based exchange is. Consumer side: one task
// per partition decodes packets as they arrive and hands them to the
// consumer built by makeConsumer; each packet carries its producer's node,
// so reads classify local vs remote under the shared accounting rule in
// internal/metrics (the same classification spark's shuffle reader uses).
func newExchange[T, U any](parent *DataSet[T], label string, kind core.OpKind, q int,
	route func(T) int, less func(a, b T) bool,
	makeConsumer func(part int, out partSink[U]) recordConsumer[T]) *DataSet[U] {

	e := parent.env
	ds := &DataSet[U]{
		env:         e,
		id:          int(e.nextID.Add(1)),
		chain:       []string{label},
		kind:        kind,
		parallelism: q,
		parents:     []planParent{{ds: parent, exchange: true}},
	}
	codec := serde.Of[T](e.style)
	e.metrics.CodecFallbacks.Add(int64(codec.Fallbacks))
	set := e.curShuffleSettings()
	if less == nil {
		// A non-keyed edge has no order to sort by; it stays a pipelined
		// hash repartition under every strategy.
		set.Kind = shuffle.Hash
	}

	ds.produce = func(ctx *jobCtx, sinks []partSink[U]) error {
		chans := ctx.makeChannels(parent.parallelism, q)

		// Producer side: one shuffle writer per producing subtask.
		var open atomic.Int64
		open.Store(int64(parent.parallelism))
		producerSinks := make([]partSink[T], parent.parallelism)
		for p := 0; p < parent.parallelism; p++ {
			p := p
			fromNode := ctx.place(p, parent.pref)
			pool := e.managed[fromNode]
			segs := 0
			w := shuffle.NewWriter(shuffle.Spec[T]{
				NumParts: q,
				Codec:    codec,
				Route:    route,
				Less:     less,
			}, shuffle.Env{
				Settings: set,
				Metrics:  e.metrics,
				// Sort-exchange buffers charge managed memory one segment
				// per quantum; a refused grant spills a sorted run.
				Mem: func(int64) bool {
					if pool.Acquire(1) == 1 {
						segs++
						return true
					}
					return false
				},
				Free: func(int64) {
					if segs > 0 {
						pool.Release(segs)
						segs = 0
					}
				},
				Emit: func(dst int, b shuffle.Block) error {
					if b.Len() == 0 {
						b.Release()
						return nil
					}
					e.metrics.AddShuffleWrite(int64(b.Len()), b.Raw, false)
					// Ownership rides the packet; the consumer releases
					// after decoding, recycling the buffer for the next
					// flush.
					chans[dst] <- shuffle.Packet{From: fromNode, Block: b}
					return nil
				},
			})
			producerSinks[p] = partSink[T]{
				push: func(batch []T) error {
					// Batch-granularity emit: one shuffle call per pushed
					// batch amortizes routing and flush checks.
					if err := w.WriteBatch(batch); err != nil {
						return fmt.Errorf("flink: %s: %w", label, err)
					}
					return nil
				},
				close: func() error {
					err := w.Close()
					if err != nil {
						w.Abort() // the managed segments go back to the pool
					}
					// The last producer must close the channels even when its
					// writer failed: consumers range over them and RunTasks
					// drains every task, so a skipped close hangs the job
					// instead of surfacing err.
					if open.Add(-1) == 0 {
						for _, ch := range chans {
							close(ch)
						}
					}
					return err
				},
			}
		}
		if err := parent.produce(ctx, producerSinks); err != nil {
			return err
		}

		// Consumer side: one pipelined task per output partition.
		for part := 0; part < q; part++ {
			part := part
			node := ctx.place(part, nil)
			ctx.addTask(node, func() error {
				cons := makeConsumer(part, sinks[part])
				// On error, keep draining the channel: producers block on the
				// bounded sends, and RunTasks only returns once every task
				// finishes.
				var failed error
				for pkt := range chans[part] {
					if failed != nil {
						pkt.Block.Release()
						continue
					}
					e.metrics.AddShuffleRead(int64(pkt.Block.Len()), pkt.From == node)
					raw, err := shuffle.Unpack(set, pkt.Block.Bytes())
					if err != nil {
						pkt.Block.Release()
						failed = fmt.Errorf("flink: %s: %w", label, err)
						continue
					}
					recs, err := serde.DecodeAll(codec, raw)
					pkt.Block.Release() // decode copies; recycle the buffer
					if err != nil {
						failed = fmt.Errorf("flink: %s decode: %w", label, err)
						continue
					}
					if len(recs) == 0 {
						continue
					}
					if err := cons.accept(recs); err != nil {
						failed = err
					}
				}
				if failed != nil {
					return endFailed(ctx, sinks[part], failed)
				}
				if err := cons.finish(); err != nil {
					return endFailed(ctx, sinks[part], err)
				}
				return sinks[part].close()
			})
		}
		return nil
	}
	return ds
}

// rebalanceExchange is an exchange that just re-partitions records without
// grouping (partitionCustom, rebalance). A pure repartition has no key
// order, so it stays pipelined under every strategy.
func rebalanceExchange[T any](parent *DataSet[T], label string, kind core.OpKind, q int,
	route func(T) int) *DataSet[T] {
	return newExchange[T, T](parent, label, kind, q, route, nil,
		func(part int, out partSink[T]) recordConsumer[T] {
			return recordConsumer[T]{
				accept: out.push,
				finish: func() error { return nil },
			}
		})
}
