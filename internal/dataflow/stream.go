package dataflow

import (
	"cmp"
	"time"
)

// The streaming surface of the dataflow API. A Stream is the unbounded
// counterpart of Dataset: typed, partitioned, and purely logical — source
// polls and narrow transforms compose into the poll path, and nothing runs
// until a windowed aggregation built here is handed to one of the two
// lowerings in internal/streaming (micro-batch or per-event). The log
// source implementation also lives there; this file only fixes the
// contracts so dataflow does not depend on the streaming runtime.

// StreamRecord is one element of a stream: the value plus its event time
// and the wall-clock instant it entered the source log — the ingest
// timestamp that end-to-end latency is measured from.
type StreamRecord[T any] struct {
	// Offset is the record's position within its source partition.
	Offset int64
	// Time is the event time in milliseconds.
	Time int64
	// Ingest is the append wall clock in nanoseconds (UnixNano).
	Ingest int64
	Value  T
}

// StreamSource is a partitioned, offset-addressed, replayable record
// source — the Kafka-shaped contract the streaming lowerings poll.
// streaming.Log is the canonical implementation.
type StreamSource[T any] interface {
	// Partitions returns the fixed partition count.
	Partitions() int
	// Poll returns up to max records of partition part starting at offset
	// off, plus the offset to resume from. An empty batch means no records
	// are available yet (or ever, if Sealed).
	Poll(part int, off int64, max int) ([]StreamRecord[T], int64, error)
	// Sealed reports whether the source will never grow again; a sealed
	// source drained to its end offsets is exhausted.
	Sealed() bool
	// End returns the current end offset (exclusive) of a partition.
	End(part int) int64
}

// Stream is a typed view over a StreamSource with narrow transforms
// composed in. Offsets, event times and ingest stamps pass through
// transforms untouched, so lateness and latency are properties of the
// source record regardless of the pipeline on top.
type Stream[T any] struct {
	s      *Session
	parts  int
	sealed func() bool
	end    func(part int) int64
	poll   func(part int, off int64, max int) ([]StreamRecord[T], int64, error)
}

// ReadStream opens src as a typed stream on s.
func ReadStream[T any](s *Session, src StreamSource[T]) *Stream[T] {
	// A source that serializes its records resolved their codec before any
	// session existed; the job that reads it accounts for it.
	if c, ok := src.(interface{ CodecFallbacks() int }); ok {
		s.Metrics().CodecFallbacks.Add(int64(c.CodecFallbacks()))
	}
	return &Stream[T]{s: s, parts: src.Partitions(), sealed: src.Sealed, end: src.End, poll: src.Poll}
}

// Session returns the session the stream was opened on.
func (st *Stream[T]) Session() *Session { return st.s }

// Partitions returns the source partition count.
func (st *Stream[T]) Partitions() int { return st.parts }

// Sealed reports whether the underlying source is sealed.
func (st *Stream[T]) Sealed() bool { return st.sealed() }

// End returns the current end offset of a source partition.
func (st *Stream[T]) End(part int) int64 { return st.end(part) }

// Poll reads through the composed transform chain. Offsets are source
// offsets: a filtered stream returns fewer records but the resume offset
// still advances over the dropped ones.
func (st *Stream[T]) Poll(part int, off int64, max int) ([]StreamRecord[T], int64, error) {
	return st.poll(part, off, max)
}

// StreamMap transforms every record value, keeping offset, event time and
// ingest stamp.
func StreamMap[T, U any](st *Stream[T], f func(T) U) *Stream[U] {
	return &Stream[U]{
		s: st.s, parts: st.parts, sealed: st.sealed, end: st.end,
		poll: func(part int, off int64, max int) ([]StreamRecord[U], int64, error) {
			recs, next, err := st.poll(part, off, max)
			if err != nil {
				return nil, next, err
			}
			out := make([]StreamRecord[U], len(recs))
			for i, r := range recs {
				out[i] = StreamRecord[U]{Offset: r.Offset, Time: r.Time, Ingest: r.Ingest, Value: f(r.Value)}
			}
			return out, next, nil
		},
	}
}

// StreamFilter drops records whose value fails keep.
func StreamFilter[T any](st *Stream[T], keep func(T) bool) *Stream[T] {
	return &Stream[T]{
		s: st.s, parts: st.parts, sealed: st.sealed, end: st.end,
		poll: func(part int, off int64, max int) ([]StreamRecord[T], int64, error) {
			recs, next, err := st.poll(part, off, max)
			if err != nil {
				return nil, next, err
			}
			out := recs[:0]
			for _, r := range recs {
				if keep(r.Value) {
					out = append(out, r)
				}
			}
			return out, next, nil
		},
	}
}

// Window is one event-time tumbling window [Start, End) in milliseconds.
type Window struct {
	Start, End int64
}

// WindowOf assigns an event time (ms) to its tumbling window of the given
// size (ms). A record exactly on a boundary belongs to the window that
// starts there.
func WindowOf(t, size int64) Window {
	start := t - ((t%size)+size)%size
	return Window{Start: start, End: start + size}
}

// WindowSpec describes the event-time windowing of a stream.
type WindowSpec struct {
	// Size is the tumbling window length.
	Size time.Duration
}

// WatermarkSpec describes how event-time progress is inferred.
type WatermarkSpec struct {
	// MaxOutOfOrderness is the bounded-out-of-orderness allowance: each
	// partition's watermark trails its max observed event time by this
	// much, and a record whose window has closed under its own partition's
	// watermark is late and dropped.
	MaxOutOfOrderness time.Duration
	// IdleTimeout marks a partition idle after this long without records;
	// idle partitions stop holding back the global watermark, so one
	// silent partition cannot stall window emission.
	IdleTimeout time.Duration
}

// WindowedStream is a stream keyed and windowed for aggregation. Fields
// are exported for the lowerings in internal/streaming.
type WindowedStream[T any, K cmp.Ordered] struct {
	Stream    *Stream[T]
	Key       func(T) K
	Window    WindowSpec
	Watermark WatermarkSpec
}

// WindowBy keys the stream and assigns event-time tumbling windows under
// the given watermark strategy.
func WindowBy[T any, K cmp.Ordered](st *Stream[T], key func(T) K, w WindowSpec, wm WatermarkSpec) *WindowedStream[T, K] {
	return &WindowedStream[T, K]{Stream: st, Key: key, Window: w, Watermark: wm}
}

// WindowedAggregation is the terminal streaming sink: per (key, window) an
// accumulator built with Init/Add, combined across partial results with
// Merge. Both lowerings execute this same descriptor, which is what makes
// their outputs comparable record for record.
type WindowedAggregation[T any, K cmp.Ordered, A any] struct {
	WS    *WindowedStream[T, K]
	Init  func() A
	Add   func(A, T) A
	Merge func(A, A) A
}

// AggregateWindow attaches a keyed windowed aggregation to ws.
func AggregateWindow[T any, K cmp.Ordered, A any](ws *WindowedStream[T, K],
	init func() A, add func(A, T) A, merge func(A, A) A) *WindowedAggregation[T, K, A] {
	return &WindowedAggregation[T, K, A]{WS: ws, Init: init, Add: add, Merge: merge}
}
