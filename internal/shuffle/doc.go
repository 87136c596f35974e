// Package shuffle is the shared shuffle core under all three mini-engines:
// one Writer abstraction over the map/producer side of a repartitioning
// edge, two real strategies behind it, pluggable block compression, and the
// reduce-side merge helpers — so the paper's central lever (shuffle
// implementation) becomes a configuration axis instead of three divergent
// private code paths.
//
// # Strategies
//
//   - Hash: hash-bucketed repartition. Records are routed to their reduce
//     partition and serialized immediately into per-partition buffers;
//     buffers can flush downstream as they fill (pipelined exchange). This
//     is Flink's pipelined repartition and Spark's legacy hash shuffle
//     manager.
//   - Sort: sort-based shuffle. Records are held and spilled as sorted runs
//     whenever the host engine's memory grant is refused or the spill
//     threshold is reached; Close merges the runs into one final segment
//     per partition. With a record order (Spec.Less) this is Hadoop's
//     spill-and-merge pipeline; without one it degrades to partition-id
//     grouping only — exactly what Spark's tungsten-sort does (it sorts on
//     the partition-id prefix, never on the key).
//
// # The run sorter
//
// Cutting a run — at a spill and at Close — is one pass structure, shared by
// every ordering mode and by SortByNormKey (flink's sorted partition, the same
// sorter over a single segment). Every held record is routed once (a route
// outside [0, NumParts) is the cut's error) and partitions are counted, so
// each has a known segment of the run before anything moves. Without a record
// order a stable counting scatter puts the records there in arrival order and
// that is all: tungsten-sort's partition-prefix ordering. With Less and
// NormKey each record is packed into a 16-byte pointer-free entry — its
// normalized key's first eight bytes as a big-endian integer (zero-padded),
// the key's length, the record's arrival index — laid straight into its
// partition's segment, and only entries move while a segment is ordered:
//
//   - An LSD byte-radix sort on the prefix. One pass counts all eight digits;
//     a digit the whole segment agrees on is skipped (int64 keys of a small
//     range take two scatters, not eight); every scatter is stable, so the
//     arrival index is never compared.
//   - A fix-up pass over the runs of equal prefix. A run whose keys all have
//     one length of at most eight bytes is one key repeated, already in
//     arrival order; any other run is what the prefix cannot decide and is
//     comparison-sorted under the tie rule SortByNormKey's comment states.
//   - A segment under radixCutoff (256) entries, where the 2048-counter
//     histogram would cost more than it saves, is comparison-sorted whole
//     under the same rule. Above the cutoff no comparison sort runs except
//     inside undecided runs.
//
// The records are then gathered once into one slice and the partitions are
// subslices of it. That order is sort.SliceStable under Less exactly — a total
// NormKey's bytes.Compare order is Less, and ties keep arrival order — so the
// encoded output is byte-identical to a comparison sort's, which
// TestCutMatchesReference and TestSortByNormKeyMatchesStableSort hold it to.
// Less without NormKey (a key type with no normalized form) keeps
// sort.SliceStable over the scattered segments. The partition ids, the entry
// array, the radix scratch, the long keys' bytes and the gathered run belong
// to the writer and are reused from one spill to the next
// (TestSortWriterReusesScratchAcrossSpills); a cut's result is valid until the
// next cut, and a spill has encoded it by then.
//
// # The merge
//
// Sorted segments — a writer's spilled runs at Close, the fetched map outputs
// on spark's and mapreduce's reduce side — are merged by one k-way heap
// (MergeByNormKey; ParallelMerge runs it as subtasks over groups of
// segments, and Merge is it without a key writer). Given the edge's
// normalized-key writer, each heap entry caches its head's eight-byte prefix
// and key length when the head arrives, and two heads are ordered by integer
// compare of their prefixes, then by key length where a key ends within the
// prefix — the run sorter's rule. Less runs only for two heads whose keys
// share all eight prefix bytes and go on past them, so a merge of TeraSort's
// ten-byte random keys almost never calls it, and a word merge mostly not at
// all. This is Spark's UnsafeSorterSpillMerger, which orders its spill
// readers by their records' key prefixes before it calls the record
// comparator, and Hadoop's merger, which compares serialized keys through a
// RawComparator instead of deserializing them. Equal heads drain in segment
// order, so the result is the comparator-only stable merge record for record
// (FuzzMerge holds it to that, with and without a key writer).
//
// # Combining: one table, three engines
//
// There is one pairwise combine in the core, both strategies use it, and no
// engine keeps a keyed fold of its own. Spark's map-side combine is a writer
// with Merge set; so is flink's GroupCombine — the writer each producing
// subtask of a keyed exchange owns, its table charged to managed memory
// through Env.Mem; mapreduce's writers hold their arrivals in the same table
// (table.go) and group them through its key index. A writer whose Spec sets
// Merge folds each record into its key's entry of an open-addressed combine
// table the moment it arrives (Spark's PartitionedAppendOnlyMap: fold on
// insert, spill the map, not the input).
// The table is indexed by the edge's typed key (Spec.Key, built by KeyBy
// from a key accessor): each record's key is hashed once — maphash for
// string kinds, an inline 64-bit mixer for integer kinds, core.HashKey for
// any other — and compared with ==, and string keys are interned into the
// index's own arena so that a probe reads contiguous bytes. That hash is
// process-seeded and private to one index: it finds entries and never
// routes or orders a record, so the output is the same under every seed.
// Only core.HashKey routes records (hash partitioners, flink's keyed
// exchanges) or orders them (flink's sort-strategy runs), and it must stay
// deterministic. (Spec.Hash and Spec.Same are the key's closure form, an
// indirect call per hash and per compare; a combining Spec without a Key is
// indexed by them.)
// What such a writer holds is therefore one record per distinct key, in
// first-seen order, and everything downstream sees exactly that: SpillRecs,
// SpillBytes and the Env.Mem grants count held entries — as Spark's
// size-estimated map counts its own size, not its input's — and a sort
// writer partitions, sorts and spills entries, a hash writer drains them
// into its buckets. A thousand arrivals of ten keys never spill.
//
// CombineRun, Hadoop's sort-then-combine, stays run-level and is used when
// Merge is nil: the writer holds every arrival (so thresholds count
// arrivals), and at cut or drain time makes equal keys adjacent — by Less
// when the edge has an order, through the table's key index otherwise —
// and hands the whole run to the combiner. Sorted runs merged at Close are
// combined again across runs, pairwise or run-level as the Spec says;
// unordered runs concatenate, so a key spilled twice reaches the reducer
// twice, which folds by key anyway.
//
// The reducer's fold is the same table: Fold adds decoded batches and drains
// one record per key in first-seen order. Spark's aggregation over fetched
// segments (FoldFirstSeen) and flink's GroupReduce consumer, fed packet by
// packet as its exchange delivers them, both call it. Combine counters
// (CombineInputRecords, CombineOutputRecs) are added once per writer at Close
// or once per cut, never per record.
//
// # Strategy matrix (engine × strategy)
//
//	engine     default  hash models                 sort models
//	spark      sort     spark.shuffle.manager=hash  tungsten-sort (partition-
//	                    (pre-1.2 hash shuffle)      prefix sort, heap-pressure
//	                                                spills; key-sorted for
//	                                                repartitionAndSort)
//	flink      hash     pipelined repartition with  sort-based exchange: keyed
//	                    bounded buffers and         edges buffer, spill sorted
//	                    backpressure (Flink 0.10)   runs and emit merged at
//	                                                end-of-input
//	mapreduce  sort     segments written unsorted,  classic Hadoop: sorted
//	                    reduce sorts after fetch    spills, merged segments,
//	                                                sort-merge reduce
//
// Every engine keeps its physical idiom as the default (core.ShuffleStrategy
// unset); setting shuffle.strategy=hash|sort forces the other implementation
// so strategies can be compared apples to apples on one engine — the ext6
// experiment sweeps exactly this axis against parallelism.
//
// # Compression and spilling
//
// core.ShuffleCompress selects block compression ("none" or the built-in
// "lz" codec); blocks carry a self-describing frame so readers reject
// corrupt input instead of mis-decoding it. core.ShuffleSpillThreshold caps
// the bytes a sort writer buffers before it spills a run, on top of the
// engine's own memory grant (Spark's shuffle heap fraction, Flink's managed
// segments, MapReduce's io.sort buffer).
//
// All byte accounting flows through metrics.JobMetrics with one shared rule
// (documented in internal/metrics): wire bytes written/read, raw bytes
// before compression, local vs remote classified by producer/consumer node.
//
// # Block ownership
//
// A shuffle block is no longer a bare []byte: Block pairs the payload with
// its byte accounting and its storage — pooled, kept or lent — so the
// pooled-buffer recycling in internal/memory stays safe across engine
// boundaries. The contract:
//
//   - Writers emit sealed Blocks through Env.Emit. Emit TRANSFERS ownership:
//     after the call returns, the writer never touches the payload again.
//     Blocks sealed from pooled buffers (PooledBlock) carry release rights. A
//     compressed frame is kept storage: exact-size, outside the pool, written
//     once. Blocks viewing storage someone else owns and may recycle
//     (LentBlock — e.g. a DFS file whose storage is a pooled block) carry no
//     rights.
//   - Borrow returns a zero-copy view WITHOUT release rights — the local
//     fast path. Copy copies once into kept storage the reader owns — the
//     remote path, which is also what keeps the local/remote
//     byte-accounting rule honest (remote reads really move bytes). KeepAll
//     moves a map task's blocks into one kept array and releases their
//     pooled buffers.
//   - Release returns a pooled payload to memory.DefaultPool and clears the
//     Block; on any other Block it only drops the reference. Call it once,
//     after the last read. DecodeBlocks decodes kept bytes and decompressed
//     frames in place — nothing writes them again, and the decoded strings
//     keep them alive — and copies pooled and lent bytes with strings once
//     into an immutable arena its records' strings view, so releasing right
//     after it is safe.
//
// Who releases what, per engine — every transient buffer goes back to
// memory.DefaultPool, whose free lists the collector cannot empty. The pool
// holds each engine's working set at once (memory.PoolCap), so one engine's
// traffic does not evict another's buffers:
//
//   - Every writer: a hash bucket travels in its emitted block (or goes back
//     at Abort); a sort writer's spilled run is a pooled block too. A run it
//     keeps resident is released at Close once decoded; a run it hands to a
//     SpillStore (SpillStore.Write) is the store's, released at Remove, which
//     the writer calls after the run's last Read — at Close or at Abort.
//   - Spark: the shuffle service keeps emitted map outputs for lineage
//     retries — the staged-materialisation mechanism — in storage of their
//     own: KeepAll copies a map task's blocks into one exact-size array, its
//     shuffle file, and the writer's pooled buffers go back at Close, so a
//     spark job takes from the pool only what its writers have in flight and
//     returns all of it. Fetches borrow locally and copy remotely, and the
//     reduce side decodes both in place.
//   - Flink: exchanges ship Blocks inside Packets over the bounded channels;
//     the consumer releases each after decoding it — including on the
//     error/drain paths — so flink's buffers go round as fast as its packets.
//   - MapReduce: an emitted block becomes a map-output segment on the DFS
//     (the file is the block's storage). Run keeps the block and releases it
//     after its cleanup deletes the segment, when every reduce task has
//     decoded it. Reduce reads lend a local single-block segment zero-copy
//     via dfs.File.Contiguous and copy into a pooled buffer otherwise; both
//     are copied once by the decode, because the segment's buffer goes back
//     to the pool. Its SpillStore keeps a run's block as the spill file's
//     storage, hands the run back to the final merge the same way
//     (SpillStore.Read returns a Block, released once decoded) and releases
//     the stored block when the writer removes the run.
package shuffle
