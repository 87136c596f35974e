package main

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/metrics"
	"repro/internal/serde"
	"repro/internal/shuffle"
)

// The layer replay pushes a workload's own records, single-threaded,
// through each shared layer's public API in pipeline order, one child span
// per call. It uses the record types the engines really shuffle
// (core.Pair[K,V]) under the codec resolutions and shuffle settings they
// really use, so a layer's replay cost is what that layer costs a job.

// serdeSample caps the records of a serde replay: the reflective fallback
// costs ~10 µs per record at the seed state, and both resolutions must see
// the same records to be comparable.
const serdeSample = 100_000

// execBatch is the width engines hand records to WriteBatch at
// (core.DefaultExecBatchSize; every toggle stays at its default).
const execBatch = core.DefaultExecBatchSize

// layerCPU is the CPU time each replayed layer cost for one job's worth of
// records; attributed_share sums the layers an engine uses.
type layerCPU struct {
	ingest    float64 // ns, one pass over the input
	narrow    map[string]float64
	writeSort float64
	writeHash float64
	read      float64
	sink      float64
}

// replayIngest reads the whole file the way every engine's source does
// today (File.LineSplits / FixedRecordSplits — one call, all blocks) under
// dfs.ingest, then once more through the borrowed-view scanners
// (ScanLines / ScanFixedRecords per block) under dfs.scan, which is in the
// trace file for comparison but is no declared metric.
func replayIngest(root *span, rep *report, file *dfs.File, recSize int) (lines [][]string, recs [][][]byte, cpuNs float64) {
	sp := root.child("dfs.ingest")
	if recSize > 0 {
		recs = file.FixedRecordSplits(recSize)
	} else {
		lines = file.LineSplits()
	}
	sp.end()
	var n int
	for _, s := range lines {
		n += len(s)
	}
	for _, s := range recs {
		n += len(s)
	}
	sp.count("records", float64(n))
	sp.count("bytes", float64(file.Size()))
	rep.set("dfs.ingest.ns_per_rec", sp.wallNs()/float64(n))
	rep.set("dfs.ingest.mib_per_s", float64(file.Size())/(1<<20)/(sp.wallNs()/1e9))

	scan := root.child("dfs.scan")
	scanned := 0
	for b := 0; b < file.NumBlocks(); b++ {
		blk := scan.child(fmt.Sprintf("dfs.scan.block%d", b))
		if recSize > 0 {
			file.ScanFixedRecords(b, recSize, func([]byte) { scanned++ })
		} else {
			file.ScanLines(b, func([]byte) { scanned++ })
		}
		blk.end()
	}
	scan.end()
	scan.count("records", float64(scanned))
	return lines, recs, float64(sp.CPUNs)
}

// replayNarrow runs, per engine, an ingest-only job (Count of the source)
// and the workload's narrow chain ending in Count, as sibling spans. The
// narrow kernels' cost is the difference, in CPU time because the jobs run
// at the engines' parallelism; it is clamped at zero.
func replayNarrow(root *span, rep *report, inst *instance, records int64,
	source, chain func(s *dataflow.Session) (int64, error)) (map[string]float64, error) {
	cpu := map[string]float64{}
	for _, e := range engines {
		count := func(name string, job func(*dataflow.Session) (int64, error)) (*span, error) {
			s, err := openSession(e)
			if err != nil {
				return nil, err
			}
			inst.load(s)
			runtime.GC()
			sp := root.child(name + e)
			n, err := job(s)
			sp.end()
			sp.count("records_out", float64(n))
			return sp, err
		}
		src, err := count("dataflow.source_only.", source)
		if err != nil {
			return nil, fmt.Errorf("narrow replay on %s: %w", e, err)
		}
		job, err := count("dataflow.narrow_job.", chain)
		if err != nil {
			return nil, fmt.Errorf("narrow replay on %s: %w", e, err)
		}
		self := float64(job.CPUNs - src.CPUNs)
		if self < 0 {
			self = 0
		}
		cpu[e] = self
		rep.set("dataflow.narrow."+e+".ns_per_rec", self/float64(records))
	}
	return cpu, nil
}

// shuffleReplay is one workload's shuffle edge: the records each map task
// writes and the edge's Spec without its codec.
type shuffleReplay[K comparable, V any] struct {
	tasks [][]core.Pair[K, V]
	spec  shuffle.Spec[core.Pair[K, V]]
	// fold merges values on the reduce side of a combined shuffle
	// (FoldFirstSeen); nil means sorted segments merged by spec.Less.
	fold func(a, b V) V
}

// run replays serde, the two writers and the reader, and returns the
// reduce-side output per partition.
func (r shuffleReplay[K, V]) run(root *span, rep *report, cpu *layerCPU) ([][]core.Pair[K, V], error) {
	ofPair := serde.OfPair[K, V](serde.Java)        // spark, mapreduce
	of := serde.Of[core.Pair[K, V]](serde.TypeInfo) // flink
	var sample []core.Pair[K, V]
	for _, t := range r.tasks {
		if room := serdeSample - len(sample); room > 0 {
			sample = append(sample, t[:min(room, len(t))]...)
		}
	}
	if err := replaySerde(root, rep, "serde.of_pair", ofPair, sample); err != nil {
		return nil, err
	}
	if err := replaySerde(root, rep, "serde.of", of, sample); err != nil {
		return nil, err
	}

	var in int64
	for _, t := range r.tasks {
		in += int64(len(t))
	}
	sortSet := shuffle.Settings{Kind: shuffle.Sort}
	hashSet := shuffle.Settings{Kind: shuffle.Hash, FlushBytes: 32 * 1024}

	hashBlocks, hashSpan, err := r.write(root, "shuffle.write.hash", hashSet, of)
	if err != nil {
		return nil, err
	}
	for _, part := range hashBlocks {
		for i := range part {
			part[i].Release()
		}
	}
	blocks, sortSpan, err := r.write(root, "shuffle.write.sort", sortSet, ofPair)
	if err != nil {
		return nil, err
	}
	for name, sp := range map[string]*span{"sort": sortSpan, "hash": hashSpan} {
		rep.set("shuffle.write."+name+".ns_per_rec", sp.wallNs()/float64(in))
		rep.set("shuffle.write."+name+".allocs_per_rec", sp.Counts["mallocs"]/float64(in))
	}
	// The unqualified writer metrics come from the sort replay, the
	// configuration two of the three engines run; the hash replay's own
	// counts are on its span.
	rep.set("shuffle.write.combine_ratio", sortSpan.Counts["records_out"]/float64(in))
	rep.set("shuffle.write.wire_bytes_per_rec", sortSpan.Counts["wire_bytes"]/float64(in))
	rep.set("shuffle.write.blocks", sortSpan.Counts["blocks"])
	rep.set("shuffle.write.spills", sortSpan.Counts["spills"])
	cpu.writeSort, cpu.writeHash = float64(sortSpan.CPUNs), float64(hashSpan.CPUNs)

	// Reduce side: a local read borrows the sealed blocks, decodes them,
	// and merges (sorted edge) or folds (combined edge) the segments.
	out := make([][]core.Pair[K, V], len(blocks))
	var decodeNs, mergeNs float64
	var shuffled int64
	for p, part := range blocks {
		views := make([]shuffle.Block, len(part))
		dec := root.child(fmt.Sprintf("shuffle.read.decode.part%d", p))
		for i := range part {
			views[i] = part[i].Borrow()
		}
		segs, err := shuffle.DecodeBlocks(sortSet, ofPair, views)
		dec.end()
		if err != nil {
			return nil, err
		}
		mrg := root.child(fmt.Sprintf("shuffle.read.merge.part%d", p))
		if r.fold != nil {
			out[p] = shuffle.FoldFirstSeen(segs, r.fold)
		} else {
			out[p] = shuffle.Merge(segs, r.spec.Less)
		}
		mrg.end()
		for i := range part {
			shuffled += part[i].Recs
			part[i].Release()
		}
		decodeNs += dec.wallNs()
		mergeNs += mrg.wallNs()
		cpu.read += float64(dec.CPUNs + mrg.CPUNs)
	}
	rep.set("shuffle.read.decode_ns_per_rec", decodeNs/float64(shuffled))
	rep.set("shuffle.read.merge_ns_per_rec", mergeNs/float64(shuffled))
	return out, nil
}

// write feeds every map task's records through a fresh writer in
// exec-batch-sized WriteBatch calls and collects the emitted blocks per
// reduce partition. Counts are taken at the Emit boundary.
func (r shuffleReplay[K, V]) write(root *span, name string, set shuffle.Settings,
	codec serde.Codec[core.Pair[K, V]]) ([][]shuffle.Block, *span, error) {
	spec := r.spec
	spec.Codec = codec
	blocks := make([][]shuffle.Block, spec.NumParts)
	var jm metrics.JobMetrics
	var wire, recsOut, nBlocks int64
	env := shuffle.Env{Settings: set, Metrics: &jm, Emit: func(p int, b shuffle.Block) error {
		if b.Len() == 0 {
			b.Release()
			return nil
		}
		wire += int64(b.Len())
		recsOut += b.Recs
		nBlocks++
		blocks[p] = append(blocks[p], b)
		return nil
	}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sp := root.child(name)
	for _, task := range r.tasks {
		w := shuffle.NewWriter(spec, env)
		for len(task) > 0 {
			n := min(execBatch, len(task))
			if err := w.WriteBatch(task[:n]); err != nil {
				return nil, nil, err
			}
			task = task[n:]
		}
		if err := w.Close(); err != nil {
			return nil, nil, err
		}
	}
	sp.end()
	runtime.ReadMemStats(&after)
	sp.count("mallocs", float64(after.Mallocs-before.Mallocs))
	sp.count("records_out", float64(recsOut))
	sp.count("wire_bytes", float64(wire))
	sp.count("blocks", float64(nBlocks))
	sp.count("spills", float64(jm.SpillCount.Load()))
	return blocks, sp, nil
}

// replaySerde encodes and decodes the sample back to back, the layout of a
// shuffle block.
func replaySerde[T any](root *span, rep *report, name string, codec serde.Codec[T], recs []T) error {
	enc := root.child(name + ".encode")
	buf := serde.EncodeAll(codec, nil, recs)
	enc.end()
	dec := root.child(name + ".decode")
	got, err := serde.DecodeAll(codec, buf)
	dec.end()
	if err != nil {
		return err
	}
	if len(got) != len(recs) {
		return fmt.Errorf("%s: decoded %d of %d records", name, len(got), len(recs))
	}
	n := float64(len(recs))
	enc.count("records", n)
	enc.count("bytes", float64(len(buf)))
	rep.set(name+".encode_ns_per_rec", enc.wallNs()/n)
	rep.set(name+".decode_ns_per_rec", dec.wallNs()/n)
	rep.set(name+".bytes_per_rec", float64(len(buf))/n)
	return nil
}

// replaySink writes the job's output file into a fresh DFS.
func replaySink(root *span, rep *report, out []byte) float64 {
	fs := dfs.New(clusterSpec.Nodes, dfsBlockSize, 1)
	sp := root.child("dfs.sink")
	fs.WriteFile("out", out)
	sp.end()
	sp.count("bytes", float64(len(out)))
	rep.set("dfs.sink.ns_per_byte", sp.wallNs()/float64(len(out)))
	return float64(sp.CPUNs)
}

// replaySched runs waves of no-op tasks, two per node, through a runtime
// shaped like the sessions': what one RunTasks round and one task cost
// when the work itself costs nothing.
func replaySched(root *span, rep *report, waves int) error {
	rt, err := cluster.NewRuntime(clusterSpec, clusterSpec.CoresPerNode)
	if err != nil {
		return err
	}
	tasks := make([]cluster.Task, 2*clusterSpec.Nodes)
	for i := range tasks {
		tasks[i] = cluster.Task{Node: i % clusterSpec.Nodes, Fn: func() error { return nil }}
	}
	sp := root.child("cluster.sched")
	for w := 0; w < waves; w++ {
		if err := rt.RunTasks(tasks); err != nil {
			return err
		}
	}
	sp.end()
	sp.count("waves", float64(waves))
	sp.count("tasks", float64(waves*len(tasks)))
	rep.set("cluster.sched.ns_per_wave", sp.wallNs()/float64(waves))
	rep.set("cluster.sched.ns_per_task", sp.wallNs()/float64(waves*len(tasks)))
	return nil
}

// keyedSpec is the Spec of a hash-partitioned edge with a pairwise map-side
// combiner, the shape reduceByKey gives wordcount's counts and pagerank's
// messages.
func keyedSpec[K comparable, V any](merge func(a, b V) V) shuffle.Spec[core.Pair[K, V]] {
	return shuffle.Spec[core.Pair[K, V]]{
		NumParts: parallelism,
		Route:    func(p core.Pair[K, V]) int { return int(core.HashKey(p.Key) % parallelism) },
		Same:     func(a, b core.Pair[K, V]) bool { return a.Key == b.Key },
		Hash:     func(p core.Pair[K, V]) uint64 { return core.HashKey(p.Key) },
		Merge: func(a, b core.Pair[K, V]) core.Pair[K, V] {
			return core.KV(a.Key, merge(a.Value, b.Value))
		},
	}
}

func replayWordCount(root *span, rep *report, inst *instance, text []byte) (*layerCPU, error) {
	cpu := &layerCPU{}
	file := dfs.New(clusterSpec.Nodes, dfsBlockSize, 1).WriteFile("in", text)
	lines, _, ingest := replayIngest(root, rep, file, 0)
	cpu.ingest = ingest

	var err error
	cpu.narrow, err = replayNarrow(root, rep, inst, inst.records,
		func(s *dataflow.Session) (int64, error) { return dataflow.Count(dataflow.TextFile(s, "in")) },
		func(s *dataflow.Session) (int64, error) {
			words := dataflow.FlatMap(dataflow.TextFile(s, "in"), func(l string) []string { return strings.Fields(l) })
			return dataflow.Count(dataflow.MapToPair(words, func(w string) core.Pair[string, int64] {
				return core.KV(w, int64(1))
			}))
		})
	if err != nil {
		return nil, err
	}

	sum := func(a, b int64) int64 { return a + b }
	edge := shuffleReplay[string, int64]{spec: keyedSpec[string](sum), fold: sum}
	for _, split := range lines { // one map task per input block
		var task []core.Pair[string, int64]
		for _, l := range split {
			for _, w := range strings.Fields(l) {
				task = append(task, core.KV(w, int64(1)))
			}
		}
		edge.tasks = append(edge.tasks, task)
	}
	out, err := edge.run(root, rep, cpu)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	for _, part := range out {
		for _, p := range part {
			fmt.Fprintln(&sb, p)
		}
	}
	cpu.sink = replaySink(root, rep, []byte(sb.String()))
	return cpu, nil
}

func replayGrep(root *span, rep *report, inst *instance, text []byte, pattern string) (*layerCPU, error) {
	cpu := &layerCPU{}
	file := dfs.New(clusterSpec.Nodes, dfsBlockSize, 1).WriteFile("in", text)
	_, _, cpu.ingest = replayIngest(root, rep, file, 0)
	lines := inst.records / int64(inst.jobs)
	var err error
	cpu.narrow, err = replayNarrow(root, rep, inst, lines,
		func(s *dataflow.Session) (int64, error) { return dataflow.Count(dataflow.TextFile(s, "in")) },
		func(s *dataflow.Session) (int64, error) {
			return dataflow.Count(dataflow.Filter(dataflow.TextFile(s, "in"),
				func(l string) bool { return strings.Contains(l, pattern) }))
		})
	if err != nil {
		return nil, err
	}
	// Scan and filter only: no record is encoded, shuffled or written back.
	rep.notApplicable("serde.", "shuffle.", "dfs.sink.")
	return cpu, nil
}

func replayTeraSort(root *span, rep *report, inst *instance, data []byte, part *core.RangePartitioner[string]) (*layerCPU, error) {
	cpu := &layerCPU{}
	file := dfs.New(clusterSpec.Nodes, dfsBlockSize, 1).WriteFile("in", data)
	_, splits, ingest := replayIngest(root, rep, file, datagen.TeraRecordSize)
	cpu.ingest = ingest

	toPair := func(r []byte) core.Pair[string, string] {
		return core.KV(datagen.TeraKey(r), string(r[datagen.TeraKeySize:]))
	}
	var err error
	cpu.narrow, err = replayNarrow(root, rep, inst, inst.records,
		func(s *dataflow.Session) (int64, error) {
			return dataflow.Count(dataflow.BinaryFile(s, "in", datagen.TeraRecordSize))
		},
		func(s *dataflow.Session) (int64, error) {
			return dataflow.Count(dataflow.MapToPair(dataflow.BinaryFile(s, "in", datagen.TeraRecordSize), toPair))
		})
	if err != nil {
		return nil, err
	}

	// No combine: every record is encoded, range-partitioned, sorted on its
	// normalized key, fetched, decoded, merged and written back.
	edge := shuffleReplay[string, string]{spec: shuffle.Spec[core.Pair[string, string]]{
		NumParts: parallelism,
		Route:    func(p core.Pair[string, string]) int { return part.Partition(p.Key) },
		Less:     func(a, b core.Pair[string, string]) bool { return a.Key < b.Key },
		NormKey:  serde.PairNormKeyer[string, string](serde.NormKeyerFor[string]()),
	}}
	for _, split := range splits {
		task := make([]core.Pair[string, string], len(split))
		for i, r := range split {
			task[i] = toPair(r)
		}
		edge.tasks = append(edge.tasks, task)
	}
	out, err := edge.run(root, rep, cpu)
	if err != nil {
		return nil, err
	}
	sorted := make([]byte, 0, len(data))
	for _, p := range out {
		for _, kv := range p {
			sorted = append(append(sorted, kv.Key...), kv.Value...)
		}
	}
	cpu.sink = replaySink(root, rep, sorted)
	return cpu, nil
}

func replayPageRank(root *span, rep *report, edges []datagen.Edge) (*layerCPU, error) {
	cpu := &layerCPU{}
	// Edges enter through FromSlice: no DFS ingest, no narrow chain over a
	// source, no output file.
	rep.notApplicable("dfs.", "dataflow.narrow.")

	// One superstep's messages: every vertex starts active at rank 1.0 and
	// sends rank/outDegree along each out-edge, summed per destination.
	outDeg := make(map[int64]int64)
	for _, e := range edges {
		outDeg[e.Src]++
	}
	sum := func(a, b float64) float64 { return a + b }
	edge := shuffleReplay[int64, float64]{spec: keyedSpec[int64](sum), fold: sum}
	per := (len(edges) + parallelism - 1) / parallelism
	for lo := 0; lo < len(edges); lo += per {
		var task []core.Pair[int64, float64]
		for _, e := range edges[lo:min(lo+per, len(edges))] {
			task = append(task, core.KV(e.Dst, 1.0/float64(outDeg[e.Src])))
		}
		edge.tasks = append(edge.tasks, task)
	}
	if _, err := edge.run(root, rep, cpu); err != nil {
		return nil, err
	}
	// The job shuffles messages once per superstep.
	cpu.writeSort *= prSupersteps
	cpu.writeHash *= prSupersteps
	cpu.read *= prSupersteps
	return cpu, nil
}
