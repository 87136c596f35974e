package flink

import "repro/internal/core"

// Streaming hooks: the per-event lowering in internal/streaming builds on
// the same pipelined machinery the batch API uses — a generating source
// plus a hash exchange — with stateful consumers instead of grouping. The
// bounded exchange channels give the stream its backpressure, and setting
// buffer.size small makes every record flush immediately, which is the
// per-event (rather than buffer-a-block) shipping discipline.

// GeneratingSource builds a source whose tasks run gen for their partition,
// pushing batches through emit until gen returns. Unlike the file sources,
// gen may block (tailing a log, sleeping between polls): it occupies its
// task slot for the lifetime of the job, exactly like a streaming source
// task.
func GeneratingSource[T any](e *Env, label string, parallelism int,
	gen func(part int, emit func(batch []T) error) error) *DataSet[T] {
	return newSource(e, label, parallelism, nil, gen)
}

// Processor consumes one partition of a keyed exchange with state: Process
// sees record batches as they arrive, pipelined with the producers; Finish
// fires once at end-of-input.
type Processor[T any] interface {
	Process(batch []T) error
	Finish() error
}

// KeyedProcess hangs q stateful processors off a pipelined hash exchange —
// the per-event streaming operator. route picks the consumer partition per
// record (typically a key hash; control records may carry an explicit
// destination, which is how watermarks broadcast). newProc builds each
// partition's processor around the downstream emit. The edge always takes
// the hash shuffle path — less is nil — so records stream through with
// backpressure and no sort barrier.
func KeyedProcess[T, U any](parent *DataSet[T], label string, q int, route func(T) int,
	newProc func(part int, emit func(batch []U) error) Processor[T]) *DataSet[U] {
	return newExchange[T, U](parent, label, core.OpGroupBy, q, route, nil, nil,
		func(part int, out partSink[U]) recordConsumer[T] {
			proc := newProc(part, out.push)
			return recordConsumer[T]{
				accept: proc.Process,
				finish: proc.Finish,
			}
		})
}
