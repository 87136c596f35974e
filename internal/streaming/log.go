package streaming

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/dfs"
	"repro/internal/serde"
)

// Log is a Kafka-shaped ingest log over the DFS: a fixed number of
// partitions, each an append-only sequence of records addressed by offset.
// Appends batch into immutable segment files ("name/p00/seg000042"), so
// the log inherits the DFS's placement and replication and is replayable —
// OpenLog rebuilds the same log from the filesystem alone, which the
// cross-lowering parity test depends on.
//
// Records carry their event time (producer-assigned, milliseconds) and an
// ingest timestamp stamped at append (wall-clock nanoseconds); end-to-end
// latency is measured from the latter. Producers Append while consumers
// Poll concurrently — tail semantics — until Seal marks the log complete.
type Log[T any] struct {
	fs    *dfs.FS
	name  string
	codec serde.Codec[T]
	clock func() int64

	mu     sync.RWMutex
	parts  []logPartition
	sealed bool
}

type logPartition struct {
	segs []segment
	next int64 // end offset (exclusive)
}

// segment is one immutable run of records within a partition.
type segment struct {
	first int64
	count int64
	file  string
}

var _ dataflow.StreamSource[int] = (*Log[int])(nil)

// NewLog creates an empty log with the given partition count. Records
// serialize with T's TypeInfo codec (schema-first, no per-record overhead).
func NewLog[T any](fs *dfs.FS, name string, partitions int) *Log[T] {
	if partitions <= 0 {
		partitions = 1
	}
	return &Log[T]{
		fs:    fs,
		name:  name,
		codec: serde.Of[T](serde.TypeInfo),
		clock: func() int64 { return time.Now().UnixNano() },
		parts: make([]logPartition, partitions),
	}
}

// OpenLog reopens a log previously written to fs under name, rebuilding
// the partition indexes from the segment files — the replay path.
func OpenLog[T any](fs *dfs.FS, name string, partitions int) (*Log[T], error) {
	l := NewLog[T](fs, name, partitions)
	prefix := name + "/p"
	for _, f := range fs.List() {
		if !strings.HasPrefix(f, prefix) {
			continue
		}
		var part int
		var seg int64
		if _, err := fmt.Sscanf(f[len(prefix):], "%02d/seg%06d", &part, &seg); err != nil {
			continue
		}
		if part < 0 || part >= partitions {
			return nil, fmt.Errorf("streaming: %s: segment %q outside %d partitions", name, f, partitions)
		}
		l.parts[part].segs = append(l.parts[part].segs, segment{file: f})
	}
	for p := range l.parts {
		lp := &l.parts[p]
		sort.Slice(lp.segs, func(i, j int) bool { return lp.segs[i].file < lp.segs[j].file })
		for i := range lp.segs {
			recs, err := l.readSegment(lp.segs[i].file)
			if err != nil {
				return nil, err
			}
			lp.segs[i].first = lp.next
			lp.segs[i].count = int64(len(recs))
			lp.next += int64(len(recs))
		}
	}
	if fs.Exists(name + "/sealed") {
		l.sealed = true
	}
	return l, nil
}

// SetClock replaces the ingest clock (tests inject a deterministic one).
func (l *Log[T]) SetClock(now func() int64) { l.clock = now }

// CodecFallbacks reports how much of the record codec rests on the gob
// fallback (serde.Codec.Fallbacks); dataflow.ReadStream adds it to the
// reading session's metrics.
func (l *Log[T]) CodecFallbacks() int { return l.codec.Fallbacks }

// Partitions returns the partition count.
func (l *Log[T]) Partitions() int { return len(l.parts) }

// Append writes one record with the given event time (ms) to a partition
// and returns its offset. The ingest timestamp is stamped here.
func (l *Log[T]) Append(part int, eventTimeMs int64, v T) (int64, error) {
	return l.AppendBatch(part, []int64{eventTimeMs}, []T{v})
}

// AppendBatch writes a batch of records as one segment file and returns
// the offset of the first. All records share the append's ingest stamp.
func (l *Log[T]) AppendBatch(part int, eventTimesMs []int64, vs []T) (int64, error) {
	if part < 0 || part >= len(l.parts) {
		return 0, fmt.Errorf("streaming: %s: partition %d out of range", l.name, part)
	}
	if len(eventTimesMs) != len(vs) {
		return 0, fmt.Errorf("streaming: %s: %d times for %d values", l.name, len(eventTimesMs), len(vs))
	}
	if len(vs) == 0 {
		return l.End(part), nil
	}
	ingest := l.clock()
	var buf []byte
	for i, v := range vs {
		buf = binary.BigEndian.AppendUint64(buf, uint64(eventTimesMs[i]))
		buf = binary.BigEndian.AppendUint64(buf, uint64(ingest))
		buf = l.codec.Encode(buf, v)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return 0, fmt.Errorf("streaming: %s: append to sealed log", l.name)
	}
	lp := &l.parts[part]
	file := fmt.Sprintf("%s/p%02d/seg%06d", l.name, part, len(lp.segs))
	l.fs.WriteFile(file, buf)
	first := lp.next
	lp.segs = append(lp.segs, segment{first: first, count: int64(len(vs)), file: file})
	lp.next += int64(len(vs))
	return first, nil
}

// Seal marks the log complete: no further appends, and consumers that
// drain to the end offsets are done. The marker persists on the DFS so a
// reopened log is sealed too.
func (l *Log[T]) Seal() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.sealed {
		l.sealed = true
		l.fs.WriteFile(l.name+"/sealed", []byte{1})
	}
}

// Sealed reports whether the log is complete.
func (l *Log[T]) Sealed() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.sealed
}

// End returns the end offset (exclusive) of a partition.
func (l *Log[T]) End(part int) int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.parts[part].next
}

// Poll returns up to max records of a partition starting at offset off and
// the offset to resume from. A poll never spans segment files; callers
// loop until the resume offset stops advancing.
func (l *Log[T]) Poll(part int, off int64, max int) ([]dataflow.StreamRecord[T], int64, error) {
	if part < 0 || part >= len(l.parts) {
		return nil, off, fmt.Errorf("streaming: %s: partition %d out of range", l.name, part)
	}
	if max <= 0 {
		max = 1 << 20
	}
	l.mu.RLock()
	lp := l.parts[part]
	l.mu.RUnlock()
	if off >= lp.next {
		return nil, off, nil
	}
	// Binary search for the segment containing off.
	i := sort.Search(len(lp.segs), func(i int) bool {
		return lp.segs[i].first+lp.segs[i].count > off
	})
	if i == len(lp.segs) {
		return nil, off, nil
	}
	seg := lp.segs[i]
	recs, err := l.readSegment(seg.file)
	if err != nil {
		return nil, off, err
	}
	lo := off - seg.first
	hi := seg.count
	if hi-lo > int64(max) {
		hi = lo + int64(max)
	}
	out := make([]dataflow.StreamRecord[T], 0, hi-lo)
	for j := lo; j < hi; j++ {
		r := recs[j]
		r.Offset = seg.first + j
		out = append(out, r)
	}
	return out, seg.first + hi, nil
}

// readSegment decodes one segment file; offsets are left for the caller.
func (l *Log[T]) readSegment(file string) ([]dataflow.StreamRecord[T], error) {
	f, err := l.fs.Open(file)
	if err != nil {
		return nil, fmt.Errorf("streaming: %s: %w", l.name, err)
	}
	src := f.Contents()
	var out []dataflow.StreamRecord[T]
	for len(src) > 0 {
		if len(src) < 16 {
			return nil, fmt.Errorf("streaming: %s: truncated segment %s", l.name, file)
		}
		t := int64(binary.BigEndian.Uint64(src))
		ing := int64(binary.BigEndian.Uint64(src[8:]))
		v, n, err := l.codec.Decode(src[16:])
		if err != nil {
			return nil, fmt.Errorf("streaming: %s: segment %s: %w", l.name, file, err)
		}
		src = src[16+n:]
		out = append(out, dataflow.StreamRecord[T]{Time: t, Ingest: ing, Value: v})
	}
	return out, nil
}
