package streaming

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/engine/flink"
	"repro/internal/metrics"
)

// Msg is the unit the per-event lowering ships through the flink exchange:
// either one stream record or a watermark heartbeat. Every data message
// piggybacks its partition's watermark as of that record; heartbeats
// broadcast watermark progress (and wake consumers) when a partition has
// nothing to send. Fields are exported for the exchange's codec.
type Msg[T any] struct {
	Rec    dataflow.StreamRecord[T]
	HasRec bool
	// Part is the source partition the message came from.
	Part int
	// WM is the source partition's watermark (ms) as of this message.
	WM int64
	// Dest is the consumer partition for heartbeats (data messages route
	// by key hash instead).
	Dest int
}

// RunPerEvent executes a windowed aggregation the Flink way: source tasks
// tail the log and push records one poll at a time into a pipelined hash
// exchange (the same bounded-channel exchange the batch operators use);
// stateful window operators on the other side fold each record into its
// (key, window) accumulator the moment it arrives and emit a window as
// soon as the global watermark passes it. No driver loop, no batch
// boundary: a record's latency is its queueing plus in-flight time, which
// is why this lowering's percentiles sit far below micro-batch's.
//
// Watermark propagation: data messages carry their partition's watermark;
// sources additionally broadcast heartbeat watermarks to every operator
// partition at a short cadence (derived from the idle timeout), so an
// operator that receives no data for some source partition still observes
// its progress — and the idle timeout in the watermark strategy stops a
// fully silent partition from stalling emission (see watermarks.global).
//
// The session must be on the flink backend. Open it with a small
// buffer.size (the exchange's flush threshold): per-event shipping means
// flushing every record, not every 32KB block.
func RunPerEvent[T any, K cmp.Ordered, A any](agg *dataflow.WindowedAggregation[T, K, A], conf *core.Config) (*Result[K, A], error) {
	st := agg.WS.Stream
	s := st.Session()
	env, ok := s.Handle().(*flink.Env)
	if !ok {
		return nil, fmt.Errorf("streaming: per-event lowering needs the flink backend, session is on %q", s.Name())
	}
	sizeMs := agg.WS.Window.Size.Milliseconds()
	if sizeMs <= 0 {
		sizeMs = 1
	}
	parts := st.Partitions()
	q := parts // operator parallelism: one window operator per source partition
	heartbeat := agg.WS.Watermark.IdleTimeout / 4
	if heartbeat <= 0 {
		heartbeat = 5 * time.Millisecond
	}
	lat := &s.Metrics().Latency
	var late, records atomic.Int64
	start := time.Now()

	source := flink.GeneratingSource(env, "StreamSource", parts,
		func(part int, emit func([]Msg[T]) error) error {
			var off int64
			maxEvent := int64(math.MinInt64)
			boundMs := agg.WS.Watermark.MaxOutOfOrderness.Milliseconds()
			wm := func() int64 {
				if maxEvent == math.MinInt64 {
					return noWatermark
				}
				return maxEvent - boundMs
			}
			lastBeat := time.Now()
			broadcast := func() error {
				hb := make([]Msg[T], q)
				for d := range hb {
					hb[d] = Msg[T]{Part: part, WM: wm(), Dest: d}
				}
				lastBeat = time.Now()
				return emit(hb)
			}
			for {
				recs, next, err := st.Poll(part, off, 256)
				if err != nil {
					return err
				}
				if len(recs) > 0 {
					out := make([]Msg[T], len(recs))
					for i, r := range recs {
						if r.Time > maxEvent {
							maxEvent = r.Time
						}
						out[i] = Msg[T]{Rec: r, HasRec: true, Part: part, WM: wm()}
					}
					if err := emit(out); err != nil {
						return err
					}
				}
				if next > off {
					off = next
					// Keep the watermark flowing to operators that this
					// partition's keys do not route to.
					if time.Since(lastBeat) >= heartbeat {
						if err := broadcast(); err != nil {
							return err
						}
					}
					continue
				}
				if st.Sealed() && off >= st.End(part) {
					return nil
				}
				if time.Since(lastBeat) >= heartbeat {
					if err := broadcast(); err != nil {
						return err
					}
				}
				time.Sleep(time.Millisecond)
			}
		})

	route := func(m Msg[T]) int {
		if !m.HasRec {
			return m.Dest
		}
		return keyHash(agg.WS.Key(m.Rec.Value)) % q
	}
	windows := flink.KeyedProcess(source, "WindowAggregate", q, route,
		func(_ int, emit func([]WindowOut[K, A]) error) flink.Processor[Msg[T]] {
			return &windowProc[T, K, A]{
				agg:      agg,
				sizeMs:   sizeMs,
				wms:      newWatermarks(parts, agg.WS.Watermark.MaxOutOfOrderness, agg.WS.Watermark.IdleTimeout),
				state:    windowState[K, A]{},
				emit:     emit,
				lat:      lat,
				late:     &late,
				records:  &records,
				nowNanos: func() int64 { return time.Now().UnixNano() },
			}
		})

	outs, err := flink.Collect(windows)
	if err != nil {
		return nil, err
	}
	return &Result[K, A]{
		Windows: canonicalize(outs, agg.Merge),
		Stats: Stats{
			Records: records.Load(),
			Late:    late.Load(),
			Elapsed: time.Since(start),
		},
	}, nil
}

// windowProc is one partition of the per-event window operator: keyed
// window state plus a watermark view over every source partition.
type windowProc[T any, K cmp.Ordered, A any] struct {
	agg      *dataflow.WindowedAggregation[T, K, A]
	sizeMs   int64
	wms      *watermarks
	state    windowState[K, A]
	emit     func([]WindowOut[K, A]) error
	lat      *metrics.LatencySketch
	late     *atomic.Int64
	records  *atomic.Int64
	nowNanos func() int64
}

func (w *windowProc[T, K, A]) Process(batch []Msg[T]) error {
	now := time.Now()
	for _, m := range batch {
		w.wms.carry(m.Part, m.WM, now, m.HasRec)
		if !m.HasRec {
			continue
		}
		// Lateness is judged against the record's own partition watermark
		// carried on the message — same rule, same verdicts as micro-batch.
		if dataflow.WindowOf(m.Rec.Time, w.sizeMs).End <= m.WM {
			w.late.Add(1)
			continue
		}
		w.records.Add(1)
		win := dataflow.WindowOf(m.Rec.Time, w.sizeMs)
		w.state.add(w.agg.WS.Key(m.Rec.Value), win.Start,
			Cell[A]{Agg: w.agg.Add(w.agg.Init(), m.Rec.Value), Ingests: []int64{m.Rec.Ingest}, Count: 1},
			w.agg.Merge)
	}
	if outs := w.state.emitReady(w.wms.global(now), w.sizeMs, w.lat, w.nowNanos); len(outs) > 0 {
		return w.emit(outs)
	}
	return nil
}

func (w *windowProc[T, K, A]) Finish() error {
	// End of stream: every producer closed, flush what remains.
	if outs := w.state.emitReady(math.MaxInt64, w.sizeMs, w.lat, w.nowNanos); len(outs) > 0 {
		return w.emit(outs)
	}
	return nil
}

// keyHash routes a key to an operator partition (FNV-1a over the printed
// key; stable within a job, which is all an exchange needs).
func keyHash[K cmp.Ordered](k K) int {
	h := fnv.New32a()
	fmt.Fprintf(h, "%v", k)
	return int(h.Sum32() & math.MaxInt32)
}
