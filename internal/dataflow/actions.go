package dataflow

import (
	"cmp"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine/flink"
	"repro/internal/engine/spark"
)

// Actions lower the logical plan onto the session's engine and execute
// the engine's physical plan: a job (or stage wave) per action on Spark
// and Flink, one or more full two-phase jobs on MapReduce.

// Collect gathers every record on the driver in partition order.
func Collect[T any](d *Dataset[T]) ([]T, error) {
	recs, err := collect(d)
	d.s.driverRecords(len(recs))
	return recs, err
}

func collect[T any](d *Dataset[T]) ([]T, error) {
	switch d.s.kind {
	case Spark:
		r, err := repOf[*spark.RDD[T]](d)
		if err != nil {
			return nil, err
		}
		return spark.Collect(r)
	case Flink:
		ds, err := repOf[*flink.DataSet[T]](d)
		if err != nil {
			return nil, err
		}
		return flink.Collect(ds)
	default:
		fr, err := repOf[*mrFrag[T]](d)
		if err != nil {
			return nil, err
		}
		return fr.collect()
	}
}

// Count returns the record count (filter → count in the paper's Grep). On
// MapReduce it is a full job with a single summing reduce.
func Count[T any](d *Dataset[T]) (int64, error) {
	d.s.driverRecords(1) // the count itself
	switch d.s.kind {
	case Spark:
		r, err := repOf[*spark.RDD[T]](d)
		if err != nil {
			return 0, err
		}
		return spark.Count(r)
	case Flink:
		ds, err := repOf[*flink.DataSet[T]](d)
		if err != nil {
			return 0, err
		}
		return flink.Count(ds)
	default:
		fr, err := repOf[*mrFrag[T]](d)
		if err != nil {
			return 0, err
		}
		return fr.count()
	}
}

// CollectAsMap gathers a pair dataset into a driver-side map. On Spark the
// result is charged against the driver heap (the paper's K-Means failure
// mode); the other engines build it from a plain collect.
func CollectAsMap[K cmp.Ordered, V any](d *Dataset[core.Pair[K, V]]) (map[K]V, error) {
	if d.s.kind == Spark {
		r, err := repOf[*spark.RDD[core.Pair[K, V]]](d)
		if err != nil {
			return nil, err
		}
		m, err := spark.CollectAsMap(r)
		d.s.driverRecords(len(m))
		return m, err
	}
	pairs, err := Collect(d)
	if err != nil {
		return nil, err
	}
	m := make(map[K]V, len(pairs))
	for _, p := range pairs {
		m[p.Key] = p.Value
	}
	return m, nil
}

// SaveAsText writes one fmt line per record to the DFS, the text sink of
// every engine (saveAsTextFile / writeAsText / TextOutputFormat-style). A
// pair of strings or integers is written without fmt, to the same bytes
// (textEncoder).
func SaveAsText[T any](d *Dataset[T], name string) error {
	return SaveBytes(d, name, textEncoder[T]())
}

// SaveBytes writes every record through enc — which appends the record's
// encoding to dst and returns the extended slice — concatenated in
// partition order: the binary sink Tera Sort validates (records land
// globally ordered when the upstream partitioner is a range partitioner).
//
// It is the one sink of every engine, and it runs where the paper's Table I
// puts the last operator of a plan: inside the parallel tasks. The task that
// produces a partition encodes it into that partition's own buffer — Spark's
// result tasks a whole partition at a time, Flink's sink subtasks batch by
// batch as the pipeline delivers, MapReduce in a wave of one task per output
// split — and the driver commits those buffers as the file's parts
// (dfs.FS.WriteParts), as they are: it neither joins nor copies them.
// Nothing is written unless every task succeeded.
func SaveBytes[T any](d *Dataset[T], name string, enc func(dst []byte, v T) []byte) error {
	var out sinkParts[T]
	switch d.s.kind {
	case Spark:
		r, err := repOf[*spark.RDD[T]](d)
		if err != nil {
			return err
		}
		out = newSinkParts(r.NumPartitions(), enc)
		if err := spark.ForeachPartition(r, out.put); err != nil {
			return err
		}
	case Flink:
		ds, err := repOf[*flink.DataSet[T]](d)
		if err != nil {
			return err
		}
		out = newSinkParts(ds.Parallelism(), enc)
		if err := flink.ForEach(ds, "DataSink", out.add); err != nil {
			return err
		}
	default:
		fr, err := repOf[*mrFrag[T]](d)
		if err != nil {
			return err
		}
		sp, err := fr.load()
		if err != nil {
			return err
		}
		out = newSinkParts(sp.n, enc)
		if err := sp.foreachPart(fr.c, out.add); err != nil {
			return err
		}
	}
	f := d.s.FS().WriteParts(name, out.bufs)
	d.s.Metrics().DiskBytesWritten.Add(f.Size())
	var recs int64
	for _, n := range out.recs {
		recs += n
	}
	d.s.Metrics().RecordsWritten.Add(recs)
	return nil
}

// sinkParts holds a sink job's output while its tasks run: one buffer and
// one record count per partition, each written only by the task that owns
// the partition, so the tasks share nothing and need no lock. The buffers
// are allocated for the output file and become its parts: once SaveBytes
// commits them nothing writes them again (dfs's write-once rule).
type sinkParts[T any] struct {
	enc  func(dst []byte, v T) []byte
	bufs [][]byte
	recs []int64
}

func newSinkParts[T any](n int, enc func(dst []byte, v T) []byte) sinkParts[T] {
	return sinkParts[T]{enc: enc, bufs: make([][]byte, n), recs: make([]int64, n)}
}

// put encodes partition p from its complete records, replacing what an
// earlier attempt of the task may have left.
func (s sinkParts[T]) put(p int, recs []T) error {
	s.bufs[p], s.recs[p] = nil, 0
	return s.add(p, recs)
}

// add encodes the next records of partition p behind those already there.
// The buffer is sized when the first records arrive, from the first one's
// encoding times their number — exact for fixed-width records handed over
// as a whole partition. A panic in the user's encoder fails the task, not
// the process.
func (s sinkParts[T]) add(p int, recs []T) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dataflow: sink encoder panicked on partition %d: %v", p, r)
		}
	}()
	buf := s.bufs[p]
	rest := recs
	if buf == nil && len(recs) > 0 {
		first := s.enc(nil, recs[0])
		buf = append(make([]byte, 0, len(first)*len(recs)), first...)
		rest = recs[1:]
	}
	for _, v := range rest {
		buf = s.enc(buf, v)
	}
	s.bufs[p] = buf
	s.recs[p] += int64(len(recs))
	return nil
}
