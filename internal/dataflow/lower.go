package dataflow

import (
	"repro/internal/engine/flink"
	"repro/internal/engine/mapreduce"
	"repro/internal/engine/spark"
)

// Lowering hooks for subsystem packages built on top of the dataflow layer
// (internal/dataflow/graph): they expose a Dataset's engine representation
// so a subsystem can continue the pipeline with engine-native operators
// (GraphX-style cogroups on spark, delta iterations on flink, jobs of its own
// on mapreduce) while the inputs keep flowing through the unified API. All three
// memoize per logical node like every other lowering, so a Dataset shared
// between dataflow actions and a subsystem lowers exactly once.

// SparkRDDOf lowers d on its spark-backed session and returns the RDD.
// It errors when the session is not bound to the spark engine.
func SparkRDDOf[T any](d *Dataset[T]) (*spark.RDD[T], error) {
	return repOf[*spark.RDD[T]](d)
}

// FlinkDataSetOf lowers d on its flink-backed session and returns the
// DataSet. It errors when the session is not bound to the flink engine.
func FlinkDataSetOf[T any](d *Dataset[T]) (*flink.DataSet[T], error) {
	return repOf[*flink.DataSet[T]](d)
}

// MapReduceInputOf lowers d on its mapreduce-backed session and returns it
// as the input of the subsystem's next job: map task i reads split i and runs
// d's narrow chain over it, and whatever jobs d depends on have run. It
// errors when the session is not bound to the mapreduce engine.
func MapReduceInputOf[T any](d *Dataset[T]) (mapreduce.Input[T], error) {
	fr, err := repOf[*mrFrag[T]](d)
	if err != nil {
		return mapreduce.Input[T]{}, err
	}
	sp, err := fr.load()
	if err != nil {
		return mapreduce.Input[T]{}, err
	}
	return sp.input(fr.c), nil
}
