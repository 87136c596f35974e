package core

// OpKind classifies dataflow operators. The set is the union of the
// operators in Table I of the paper: the common core (map, filter, reduce,
// …), the Spark-only ones (mapToPair, reduceByKey, collectAsMap,
// repartitionAndSortWithinPartitions) and the Flink-only ones (groupBy→sum,
// partitionCustom→sortPartition, bulk and delta iterations, coGroup).
type OpKind int

// Operator kinds.
const (
	OpSource OpKind = iota
	OpMap
	OpFlatMap
	OpFilter
	OpMapToPair
	OpGroupBy
	OpGroupCombine
	OpGroupReduce
	OpReduce
	OpReduceByKey
	OpSum
	OpCount
	OpDistinct
	OpJoin
	OpCoGroup
	OpPartition
	OpSortPartition
	OpCollect
	OpCollectAsMap
	OpBulkIteration
	OpDeltaIteration
	OpWorkset
	OpBroadcast
	OpMapPartitions
	OpForeachPartition
	OpSink
)

var opKindNames = [...]string{
	OpSource:           "DataSource",
	OpMap:              "Map",
	OpFlatMap:          "FlatMap",
	OpFilter:           "Filter",
	OpMapToPair:        "MapToPair",
	OpGroupBy:          "GroupBy",
	OpGroupCombine:     "GroupCombine",
	OpGroupReduce:      "GroupReduce",
	OpReduce:           "Reduce",
	OpReduceByKey:      "ReduceByKey",
	OpSum:              "Sum",
	OpCount:            "Count",
	OpDistinct:         "Distinct",
	OpJoin:             "Join",
	OpCoGroup:          "CoGroup",
	OpPartition:        "Partition",
	OpSortPartition:    "SortPartition",
	OpCollect:          "Collect",
	OpCollectAsMap:     "CollectAsMap",
	OpBulkIteration:    "BulkIteration",
	OpDeltaIteration:   "DeltaIteration",
	OpWorkset:          "Workset",
	OpBroadcast:        "Broadcast",
	OpMapPartitions:    "MapPartitions",
	OpForeachPartition: "ForeachPartition",
	OpSink:             "DataSink",
}

// String returns the display name used in plan renderings and in the
// regenerated Table I.
func (k OpKind) String() string {
	if int(k) < len(opKindNames) && opKindNames[k] != "" {
		return opKindNames[k]
	}
	return "Unknown"
}
