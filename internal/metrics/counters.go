// Package metrics implements the paper's methodology: collect end-to-end
// execution data (operator spans, per-resource usage series, engine
// counters) and correlate the operators execution plan with resource
// utilization. Both mini-engines update JobMetrics and Timeline while
// running for real; the paper-scale simulator produces the same structures
// over virtual time, so one correlation report serves both layers.
package metrics

import "sync/atomic"

// JobMetrics aggregates engine counters for one job. All fields are safe
// for concurrent update by tasks.
//
// Shuffle byte accounting follows ONE rule on every engine, so the
// counters compare across frameworks (the ext6 strategy sweeps rely on
// this):
//
//   - ShuffleBytesWritten and ShuffleBytesRead count WIRE bytes — the
//     blocks as stored or sent, after any shuffle.compress codec.
//     ShuffleRawBytesWritten counts the serialized bytes before
//     compression; the ratio of the two is the compression ratio.
//   - A read is LOCAL iff the consuming task runs on the node that holds
//     the block it reads: for Spark, the node of the map task that
//     produced the output; for Flink, the node of the producing exchange
//     subtask (carried on every in-flight packet); for MapReduce, the node
//     of the DFS replica the segment is fetched from — its materialized
//     shuffle really does fetch from the filesystem, so replica placement
//     is the honest source. Everything else is REMOTE, and
//     ShuffleBytesRead = LocalBytesRead + RemoteBytesRead always holds.
//   - Spill accounting (SpillCount/SpillBytes) counts sorted runs flushed
//     under memory pressure, in serialized bytes; only engines that
//     materialize spills (MapReduce) also charge them to DiskBytes.
//
// Engines route shuffle traffic through AddShuffleWrite/AddShuffleRead so
// the rule cannot drift per call site.
type JobMetrics struct {
	ShuffleBytesWritten atomic.Int64
	// ShuffleRawBytesWritten is the pre-compression serialized volume.
	ShuffleRawBytesWritten atomic.Int64
	ShuffleBytesRead       atomic.Int64
	RemoteBytesRead        atomic.Int64
	LocalBytesRead         atomic.Int64
	SpillCount             atomic.Int64
	SpillBytes             atomic.Int64
	DiskBytesWritten       atomic.Int64
	DiskBytesRead          atomic.Int64
	TasksLaunched          atomic.Int64
	Stages                 atomic.Int64
	RecordsRead            atomic.Int64
	// RecordsWritten counts the records a sink wrote to the DFS, once, so it
	// is the same on every engine for one job; a reduce phase whose output
	// stays in memory writes nothing.
	RecordsWritten      atomic.Int64
	CacheHits           atomic.Int64
	CacheMisses         atomic.Int64
	Recomputations      atomic.Int64
	CombineInputRecords atomic.Int64
	CombineOutputRecs   atomic.Int64
	SchedulingRounds    atomic.Int64
	// CodecFallbacks counts the codec resolutions that landed on the
	// per-record encoding/gob fallback (serde.Codec.Fallbacks, added once
	// where an engine resolves a codec, not per record). It is zero for
	// every built-in workload; anything else means a record type is paying
	// a cost no mechanism of the paper explains.
	CodecFallbacks atomic.Int64
	// DriverRecords counts the records the driver goroutine itself decodes,
	// collects, encodes or broadcasts: a collected result, a FromSlice input,
	// an iteration's broadcast state. Each site adds its count once per call,
	// never once per record. Everything else is the tasks' work, so on every
	// engine it stays within the job's inputs, broadcasts and results —
	// nothing proportional to rounds × data passes through the driver.
	DriverRecords atomic.Int64

	// stageObserver, when set, receives a StageEvent at every stage
	// boundary (see SetStageObserver).
	stageObserver atomic.Pointer[stageObserverBox]
}

// AddShuffleWrite records one produced shuffle block under the shared
// accounting rule: wire bytes on ShuffleBytesWritten, pre-compression bytes
// on ShuffleRawBytesWritten, and — when the engine materializes shuffle
// files (Spark, MapReduce) — the wire bytes on DiskBytesWritten too.
func (m *JobMetrics) AddShuffleWrite(wire, raw int64, toDisk bool) {
	m.ShuffleBytesWritten.Add(wire)
	m.ShuffleRawBytesWritten.Add(raw)
	if toDisk {
		m.DiskBytesWritten.Add(wire)
	}
}

// AddShuffleRead records one consumed shuffle block: wire bytes on
// ShuffleBytesRead plus the local/remote split (see the rule above).
func (m *JobMetrics) AddShuffleRead(wire int64, local bool) {
	m.ShuffleBytesRead.Add(wire)
	if local {
		m.LocalBytesRead.Add(wire)
	} else {
		m.RemoteBytesRead.Add(wire)
	}
}

// CombineRatio reports the map-side combiner's reduction factor
// (input records per output record); 1 means the combiner did nothing.
// The paper's Word Count analysis hinges on this aggregation component.
func (m *JobMetrics) CombineRatio() float64 {
	in, out := m.CombineInputRecords.Load(), m.CombineOutputRecs.Load()
	if out == 0 {
		return 1
	}
	return float64(in) / float64(out)
}

// Snapshot is a plain-value copy for reports.
type Snapshot struct {
	ShuffleBytesWritten    int64
	ShuffleRawBytesWritten int64
	ShuffleBytesRead       int64
	RemoteBytesRead        int64
	LocalBytesRead         int64
	SpillCount             int64
	SpillBytes             int64
	DiskBytesWritten       int64
	DiskBytesRead          int64
	TasksLaunched          int64
	Stages                 int64
	RecordsRead            int64
	RecordsWritten         int64
	CacheHits              int64
	CacheMisses            int64
	Recomputations         int64
	CombineRatio           float64
	SchedulingRounds       int64
	CodecFallbacks         int64
	DriverRecords          int64
}

// StageEvent is one stage-boundary observation: the stage's name and the
// job's cumulative counters at the moment the barrier (or phase end)
// passed. Engines emit one per completed stage via NotifyStage. It is a
// test hook: spark's shuffleMapStages (engine/spark/partitioner_test.go)
// counts the shuffle-map stages a job launches, and the graph tests
// (dataflow/graph/graph_test.go) count supersteps by their stages —
// TestPregelSurvivesLosingTheEdgesNode fails a node at a stage barrier
// through it.
type StageEvent struct {
	Name string
	Snap Snapshot
}

// SetStageObserver installs fn as the stage-boundary callback (nil removes
// it). At most one observer is active; engines call it synchronously from
// the driver goroutine at stage barriers, so fn runs between stages, while
// no task of the job is running (the tests above count stages and inject
// node failures there).
func (m *JobMetrics) SetStageObserver(fn func(StageEvent)) {
	if fn == nil {
		m.stageObserver.Store((*stageObserverBox)(nil))
		return
	}
	m.stageObserver.Store(&stageObserverBox{fn: fn})
}

// NotifyStage reports a completed stage to the registered observer, if any.
// Cheap when no observer is installed.
func (m *JobMetrics) NotifyStage(name string) {
	box := m.stageObserver.Load()
	if box == nil || box.fn == nil {
		return
	}
	box.fn(StageEvent{Name: name, Snap: m.Snapshot()})
}

// stageObserverBox wraps the callback so atomic.Pointer has a concrete
// comparable element type.
type stageObserverBox struct{ fn func(StageEvent) }

// Snapshot captures the current counter values.
func (m *JobMetrics) Snapshot() Snapshot {
	return Snapshot{
		ShuffleBytesWritten:    m.ShuffleBytesWritten.Load(),
		ShuffleRawBytesWritten: m.ShuffleRawBytesWritten.Load(),
		ShuffleBytesRead:       m.ShuffleBytesRead.Load(),
		RemoteBytesRead:        m.RemoteBytesRead.Load(),
		LocalBytesRead:         m.LocalBytesRead.Load(),
		SpillCount:             m.SpillCount.Load(),
		SpillBytes:             m.SpillBytes.Load(),
		DiskBytesWritten:       m.DiskBytesWritten.Load(),
		DiskBytesRead:          m.DiskBytesRead.Load(),
		TasksLaunched:          m.TasksLaunched.Load(),
		Stages:                 m.Stages.Load(),
		RecordsRead:            m.RecordsRead.Load(),
		RecordsWritten:         m.RecordsWritten.Load(),
		CacheHits:              m.CacheHits.Load(),
		CacheMisses:            m.CacheMisses.Load(),
		Recomputations:         m.Recomputations.Load(),
		CombineRatio:           m.CombineRatio(),
		SchedulingRounds:       m.SchedulingRounds.Load(),
		CodecFallbacks:         m.CodecFallbacks.Load(),
		DriverRecords:          m.DriverRecords.Load(),
	}
}
