// Package dataflow is the engine-neutral pipeline API: each workload is
// written once as a typed logical plan and executed on any of the three
// mini-engines — the DataSet/RDD duality the paper studies, factored out so
// that adding a workload costs O(workloads + engines) instead of
// O(workloads × engines). Every operator has one lowering, a switch over the
// three engines, so adding an engine touches each operator once.
//
// A Session binds one engine (spark, flink or mapreduce); Open, the only way
// to get one, builds it by name. Sources, transformations and actions mirror
// the common core of Table I:
//
//	s, _ := dataflow.Open("flink", WithConfig(conf), WithRuntime(rt), WithFS(fs))
//	lines := dataflow.TextFile(s, "wiki")
//	words := dataflow.FlatMapAppend(lines, func(dst []string, l string) []string {
//		return append(dst, strings.Fields(l)...) // append l's words to dst, return it
//	})
//	pairs := dataflow.MapToPair(words, func(w string) core.Pair[string, int64] { return core.KV(w, int64(1)) })
//	counts := dataflow.ReduceByKey(pairs, func(a, b int64) int64 { return a + b })
//	err := dataflow.SaveAsText(counts, "counts")     // runs the engine's physical plan
//
// FlatMapAppend is Flink's flatMap(T, Collector): f appends a record's
// expansion to dst, the kernel's output scratch, and returns the extended
// slice — it may do nothing else with dst, which is overwritten after the
// batch. A tokenizer that appends word by word (the workloads' WordCount)
// allocates nothing per line; FlatMap(d, func(T) []U) is the same operator
// over a slice per record.
//
// Nothing executes until an action (Collect, Count, SaveAsText, SaveBytes,
// CollectAsMap, Iteration.Run) lowers the logical plan onto the session's
// engine. Lowering preserves each engine's physical idiom — and with it the
// performance asymmetries the paper measures:
//
//   - spark: lazy RDD lineage, staged execution, ReduceByKey with map-side
//     combine, RepartitionAndSortWithinPartitions for sorts, Cached()
//     honored as RDD persistence, iterations as driver loops with
//     CollectAsMap per round (loop unrolling);
//   - flink: one pipelined job per action with operator chaining and a
//     GroupCombine ahead of every combinable reduction's exchange,
//     partitionCustom→sortPartition for sorts, Cached() ignored (no
//     persistence control — Section VI-B), iterations as a native bulk
//     iteration scheduled once;
//   - mapreduce: narrow operators fuse into the next job's map phase, every
//     shuffle is a full spill-sort/materialize/merge job, Cached() ignored,
//     iterations as chained jobs whose input and state round-trip through
//     the DFS every round.
//
// Between a source and the first shuffle or action, consecutive narrow
// operators are one compiled kernel (fuse.go), and what the kernel produces
// goes straight into the operator that consumes it — the pipelining the
// paper names first when it explains either engine's speed. The kernel hands
// its consumer one batch at a time, BORROWED until the consumer returns: the
// storage is the last operator's scratch and the next batch overwrites it.
// So every consumer folds, encodes or copies a batch before it returns — the
// shuffle writers serialize or fold into their combine table, flink's
// combiner folds record by record, sorters and collecting actions append
// into storage of their own, the sinks below encode — and none holds the
// slice. A partition exists as a collection only where something needs it
// whole: a persisted RDD's blocks and the slice-taking operators and actions
// on spark, a sort or an iteration's superstep on flink, a job's output read
// back by the driver on mapreduce. A wordcount map task therefore holds one
// batch of (word, 1) pairs at a time, not the 1.4 M its split expands to.
//
// The stream starts at the source. TextFile and BinaryFile read a split the
// way Hadoop's record readers do — one pass, exec.batch.size records at a
// time, through one buffer per task — so the batches a source pushes, into a
// kernel or straight into an action, are borrowed on the same terms, and no
// engine holds a split's lines as a slice unless something above asks for
// the partition whole. The records in a source's batches are views of the
// stored file: lines and fixed-width records alias DFS storage, which is
// write-once (package dfs), so they may be kept for as long as they are
// needed and must not be written through.
//
// The sinks run where Table I puts the last operator of a plan, inside the
// parallel tasks. SaveBytes takes an append-style encoder,
//
//	err := dataflow.SaveBytes(sorted, "out", func(dst []byte, p core.Pair[string, string]) []byte {
//		return append(append(dst, p.Key...), p.Value...)
//	})
//
// and each output partition is encoded into its own buffer by the task that
// produced it: spark's result tasks, flink's sink subtasks as batches arrive,
// a wave of one task per split on mapreduce (which, for a plan with no
// shuffle, is also where the split is read and the narrow chain runs). The
// driver commits the parts as the file's part files (dfs.FS.WriteParts; no
// join, no copy) and counts RecordsWritten and DiskBytesWritten, once, the same on every engine; a
// task that fails — a panic in the encoder included — fails the action and
// leaves no file. SaveAsText is that sink with fmt's formatting plus a
// newline as the encoder; a pair of strings or integers gets those bytes
// without going through fmt.
//
// The plan an action runs can be rendered without running it:
// PlanOf(workload, SaveSink(counts)) lowers the dataset through the same
// memoized lowering the action uses and has the engine render what that
// built — spark the RDD lineage, flink the chained dataflow (an iteration's
// step included), mapreduce the jobs and waves read off the mapreduce.Job
// values it runs. That is how cmd/planviz and experiment tab1 regenerate the
// paper's Table I for all engines from one definition per workload.
package dataflow
