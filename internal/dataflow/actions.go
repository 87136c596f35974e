package dataflow

import (
	"cmp"
	"sync"

	"repro/internal/core"
	"repro/internal/engine/flink"
	"repro/internal/engine/spark"
)

// Actions lower the logical plan onto the session's backend and execute
// the engine's physical plan: a job (or stage wave) per action on Spark
// and Flink, one or more full two-phase jobs on MapReduce.

// Collect gathers every record on the driver in partition order.
func Collect[T any](d *Dataset[T]) ([]T, error) {
	switch d.s.kind() {
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
	switch d.s.kind() {
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
	if d.s.kind() == Spark {
		r, err := repOf[*spark.RDD[core.Pair[K, V]]](d)
		if err != nil {
			return nil, err
		}
		return spark.CollectAsMap(r)
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
// every engine (saveAsTextFile / writeAsText / TextOutputFormat-style).
func SaveAsText[T any](d *Dataset[T], name string) error {
	switch d.s.kind() {
	case Spark:
		r, err := repOf[*spark.RDD[T]](d)
		if err != nil {
			return err
		}
		return spark.SaveAsTextFile(r, name)
	case Flink:
		ds, err := repOf[*flink.DataSet[T]](d)
		if err != nil {
			return err
		}
		return flink.WriteAsText(ds, name)
	default:
		fr, err := repOf[*mrFrag[T]](d)
		if err != nil {
			return err
		}
		return fr.saveText(name)
	}
}

// SaveBytes writes enc(record) concatenated in partition order — the
// binary sink Tera Sort validates (records land globally ordered when the
// upstream partitioner is a range partitioner).
func SaveBytes[T any](d *Dataset[T], name string, enc func(T) []byte) error {
	switch d.s.kind() {
	case Spark:
		r, err := repOf[*spark.RDD[T]](d)
		if err != nil {
			return err
		}
		parts := make([][]T, r.NumPartitions())
		if err := spark.ForeachPartition(r, func(p int, data []T) error {
			parts[p] = data
			return nil
		}); err != nil {
			return err
		}
		return writeConcat(d.s, name, parts, enc)
	case Flink:
		ds, err := repOf[*flink.DataSet[T]](d)
		if err != nil {
			return err
		}
		parts := make([][]T, ds.Parallelism())
		var mu sync.Mutex
		if err := flink.ForEach(ds, "DataSink", func(p int, batch []T) error {
			mu.Lock()
			parts[p] = append(parts[p], batch...)
			mu.Unlock()
			return nil
		}); err != nil {
			return err
		}
		return writeConcat(d.s, name, parts, enc)
	default:
		fr, err := repOf[*mrFrag[T]](d)
		if err != nil {
			return err
		}
		return fr.saveBytes(name, enc)
	}
}

// writeConcat materializes partitions to one DFS file in partition order
// and charges the write.
func writeConcat[T any](s *Session, name string, parts [][]T, enc func(T) []byte) error {
	var out []byte
	for _, part := range parts {
		for _, v := range part {
			out = append(out, enc(v)...)
		}
	}
	s.FS().WriteFile(name, out)
	s.Metrics().DiskBytesWritten.Add(int64(len(out)))
	return nil
}
