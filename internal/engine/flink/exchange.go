package flink

import (
	"encoding/binary"
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

// keyed is what a keyed exchange tells the shuffle core about its key: its
// deterministic hash, which routes records and orders the sort strategy's
// runs — as normalized eight-byte keys, Flink sorting on key prefixes rather
// than user comparators — so equal keys sit side by side without a
// comparator for the key type; and the typed key a combiner's table finds a
// record's entry by.
type keyed[T any] struct {
	hash func(T) uint64
	key  shuffle.Key[T]
}

// newExchange wires a repartitioning edge between parent (P producer
// partitions) and Q consumer partitions through the shared shuffle core.
//
// Producer side: each producing subtask owns a shuffle.Writer. With a
// combiner (merge != nil, on a keyed edge) the writer is the GroupCombine:
// records fold into its combine table as they arrive and only the table's
// entries — one record per distinct key — go on to the buckets or the sort
// buffer. Under flink.combine.strategy=sort the table is charged to the
// node's managed memory, one segment per 1 024 entries, and a refused grant
// drains it downstream as a counted spill — the CPU bursts behind the
// anti-cyclic CPU/disk pattern of the paper's Figure 3; under =hash it never
// asks the pool and drains once, at end-of-input. Under the engine's default
// hash strategy records serialize into per-partition buffers of the
// configured size that flush over bounded channels as they fill — a full
// channel blocks the producer, which is the pipeline's backpressure. Under
// shuffle.strategy=sort a keyed edge (key != nil) buffers instead, spilling
// sorted runs when the managed-memory grant is refused, and ships merged
// segments at end-of-input — a pipeline breaker, which is exactly what a
// sort-based exchange is. Consumer side: one task per partition decodes
// packets as they arrive (drainSide) and hands them to the consumer built by
// makeConsumer; each packet carries its producer's node, so reads classify
// local vs remote under the shared accounting rule in internal/metrics (the
// same classification spark's shuffle reader uses).
func newExchange[T, U any](parent *DataSet[T], label string, kind core.OpKind, q int,
	route func(T) int, key *keyed[T], merge func(a, b T) T,
	makeConsumer func(part int, out partSink[U]) recordConsumer[T]) *DataSet[U] {

	e := parent.env
	ds := newDataSet[U](e, []string{label}, kind, q, nil, planParent{ds: parent, exchange: true})
	codec := serde.Of[T](e.style)
	e.metrics.CodecFallbacks.Add(int64(codec.Fallbacks))
	set := e.shuffleSet
	if key == nil {
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
			spec := shuffle.Spec[T]{
				NumParts: q,
				Codec:    codec,
				Route:    route,
			}
			if key != nil {
				spec.Key, spec.Merge = key.key, merge
				spec.Less = func(a, b T) bool { return key.hash(a) < key.hash(b) }
				spec.NormKey = func(v T, dst []byte) []byte {
					return binary.BigEndian.AppendUint64(dst, key.hash(v))
				}
			}
			// What the writer holds — combine-table entries, sort-exchange
			// buffers — is charged to managed memory one segment per
			// quantum; a refused grant drains the table or spills a run.
			mem := func(int64) bool {
				if pool.Acquire(1) == 1 {
					segs++
					return true
				}
				return false
			}
			if merge != nil && !e.combineSort {
				mem = nil
			}
			w := shuffle.NewWriter(spec, shuffle.Env{
				Settings: set,
				Metrics:  e.metrics,
				Mem:      mem,
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
					// A failed job's stream ends without a flush: what the
					// writer holds — table, buckets, runs — is dropped.
					var err error
					if ctx.failed.Load() {
						w.Abort()
					} else if err = w.Close(); err != nil {
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
				if err := drainSide(e, node, label, chans[part], codec, set, cons.accept); err != nil {
					return endFailed(ctx, sinks[part], err)
				}
				if err := guard(cons.finish); err != nil {
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
// grouping (partitionCustom). A pure repartition has no key order, so it
// stays pipelined under every strategy.
func rebalanceExchange[T any](parent *DataSet[T], label string, kind core.OpKind, q int,
	route func(T) int) *DataSet[T] {
	return newExchange[T, T](parent, label, kind, q, route, nil, nil,
		func(part int, out partSink[T]) recordConsumer[T] {
			return recordConsumer[T]{
				accept: out.push,
				finish: func() error { return nil },
			}
		})
}

// arenaCap is the largest chunk a receiver's arena grows to. Chunks start at
// the first packet's size and double, so a consumer that receives a few
// packets — a combined wordcount, a pagerank superstep — pays for what it
// receives, and one that receives hundreds — a sort's repartition — pays one
// allocation a mebibyte instead of one a packet.
const arenaCap = 1 << 20

// drainSide is the receive side of one consumer task's input: it decodes the
// packets of ch as they arrive into memory the task owns and hands each
// decoded batch to each, accounting reads local vs remote by the producing
// node each packet carries. It is Flink's input gate over the task's own
// buffers, in two parts:
//   - one batch, sized from the packets' record counts and reused for every
//     packet: what each is handed is borrowed, by the partSink contract, and
//     must be copied, folded or encoded before each returns;
//   - for a codec that Aliases, an arena every packet's bytes are appended to
//     before they are decoded, so decoded strings are views of the arena and
//     the pooled block goes back to the pool at once. The arena grows in
//     chunks (see arenaCap) and is never reused, so a kept string stays valid
//     and keeps its chunk alive.
//
// On error — a corrupt packet, each's error or a panic in it — it keeps
// draining the channel (producers block on the bounded sends, and RunTasks
// only returns once every task finishes), then reports the first error.
func drainSide[T any](e *Env, node int, label string, ch <-chan shuffle.Packet, codec serde.Codec[T],
	set shuffle.Settings, each func([]T) error) error {
	var (
		failed error
		batch  []T
		arena  []byte
	)
	for pkt := range ch {
		if failed != nil {
			pkt.Block.Release()
			continue
		}
		e.metrics.AddShuffleRead(int64(pkt.Block.Len()), pkt.From == node)
		raw, err := shuffle.Unpack(set, pkt.Block.Bytes())
		if err == nil {
			if codec.Aliases {
				arena, raw = keep(arena, raw)
			}
			if n := int(pkt.Block.Recs); cap(batch) < n {
				batch = make([]T, 0, n)
			}
			batch, err = serde.AppendDecode(codec, batch[:0], raw)
		}
		pkt.Block.Release() // the batch never aliases the block; recycle it
		if err != nil {
			failed = fmt.Errorf("flink: %s: %w", label, err)
			continue
		}
		if len(batch) > 0 {
			failed = guard(func() error { return each(batch) })
		}
	}
	return failed
}

// keep appends b to arena's current chunk, opening the next chunk when b does
// not fit, and returns the arena and b's copy in it.
func keep(arena, b []byte) (grown, kept []byte) {
	if cap(arena)-len(arena) < len(b) {
		arena = make([]byte, 0, max(len(b), min(2*cap(arena), arenaCap)))
	}
	off := len(arena)
	arena = append(arena, b...)
	return arena, arena[off:len(arena):len(arena)]
}
