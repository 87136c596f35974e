package mapreduce

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/serde"
	"repro/internal/shuffle"
)

// Run executes one job: a wave of map tasks, a full materialization
// barrier (every map output is on the DFS before any reduce starts), then
// a wave of reduce tasks. It is the engine's entire execution model —
// there is no pipelining, no caching and no iteration operator. A panic in
// a user function (map, combine, reduce, or whatever the input's scan runs)
// fails the job with an error naming the job and the task; failed or not,
// the job leaves none of its intermediate files behind.
func Run[I any, K cmp.Ordered, V any](c *Cluster, job Job[I, K, V], in Input[I]) (*Output[K, V], error) {
	jobID := c.nextJob.Add(1)
	name := job.Name
	if name == "" {
		name = fmt.Sprintf("job-%d", jobID)
	}
	reduces := job.Reduces
	if reduces <= 0 {
		reduces = c.reduces
	}
	// Job cleanup, however the job ends: drop the intermediate segments like
	// the MRAppMaster's shuffle cleanup does, and return the block each was
	// written from to the pool — every reduce task has decoded its segments
	// by then, into values that never alias them. A failed phase leaves
	// segments that earlier tasks wrote; a failed map attempt has already
	// removed its own spilled runs (runMapTask).
	segs := make([]shuffle.Block, in.NumSplits()*reduces) // segs[m*reduces+r]
	defer func() {
		for m := 0; m < in.NumSplits(); m++ {
			for r := 0; r < reduces; r++ {
				c.fs.Delete(segmentFile(jobID, m, r))
				segs[m*reduces+r].Release()
			}
		}
	}()
	partition := job.Partition
	if partition == nil {
		partition = defaultPartition[K]
	}
	codec := serde.OfPair[K, V](c.Style())
	c.metrics.CodecFallbacks.Add(int64(codec.Fallbacks))

	// --- Map phase -------------------------------------------------------
	// One task per input split, scheduled data-local. Each task buffers its
	// output in a bounded sort buffer, spills sorted runs when it fills,
	// and ends with a merge pass that materializes one sorted segment per
	// reduce partition on the DFS.
	endMap := c.timeline.StartSpan(fmt.Sprintf("Map(%s)", name))
	c.metrics.Stages.Add(1)
	splitBytes := int64(0)
	if n := int64(in.NumSplits()); n > 0 {
		splitBytes = in.bytes / n
	}
	mapTasks := make([]cluster.Task, in.NumSplits())
	for m := range mapTasks {
		m := m
		node := 0
		if in.pref != nil {
			node = in.pref(m)
		}
		mapTasks[m] = cluster.Task{Node: node, Fn: func() error {
			return runMapTask(c, jobID, name, m, in.scan, splitBytes, reduces, job, partition, codec, segs[m*reduces:(m+1)*reduces])
		}}
	}
	err := c.rt.RunTasks(mapTasks)
	endMap()
	if err != nil {
		return nil, fmt.Errorf("mapreduce: %s map phase: %w", name, err)
	}
	// The map outputs are materialized: report the phase boundary to the
	// stage observer (the graph tests count supersteps by it).
	c.metrics.NotifyStage(name + "-map")

	// --- Barrier ---------------------------------------------------------
	// RunTasks has joined every map task; all intermediate state is now
	// materialized DFS files. Only then does the reduce wave schedule.

	// --- Reduce phase ----------------------------------------------------
	endReduce := c.timeline.StartSpan(fmt.Sprintf("Shuffle+Reduce(%s)", name))
	c.metrics.Stages.Add(1)
	out := &Output[K, V]{Partitions: make([][]core.Pair[K, V], reduces)}
	reduceTasks := make([]cluster.Task, reduces)
	for r := range reduceTasks {
		r := r
		reduceTasks[r] = cluster.Task{Node: c.rt.NodeFor(r), Fn: func() error {
			part, err := runReduceTask(c, jobID, name, r, reduces, segs, job, codec)
			if err != nil {
				return err
			}
			out.Partitions[r] = part
			return nil
		}}
	}
	err = c.rt.RunTasks(reduceTasks)
	endReduce()
	if err != nil {
		return nil, fmt.Errorf("mapreduce: %s reduce phase: %w", name, err)
	}
	c.metrics.NotifyStage(name + "-reduce")
	return out, nil
}

// spillFile names map task m's run-th sorted run slice for one partition.
func spillFile(job int64, m, run, part int) string {
	return fmt.Sprintf("mr/%d/m%05d/spill%d-p%05d", job, m, run, part)
}

// segmentFile names the sorted segment of map task m for reduce partition r.
func segmentFile(job int64, m, r int) string {
	return fmt.Sprintf("mr/%d/m%05d/p%05d", job, m, r)
}

// dfsSpillStore materializes one map task's sort runs on the DFS, charging
// the disk traffic — the io.sort spill files of Hadoop's map side. A run's
// file is its pooled block, kept until Remove deletes the file and returns
// the block to the pool.
type dfsSpillStore struct {
	c      *Cluster
	job    int64
	m      int
	blocks map[string]shuffle.Block
}

func (s *dfsSpillStore) Write(run, part int, b shuffle.Block) (string, error) {
	name := spillFile(s.job, s.m, run, part)
	s.c.fs.WriteFile(name, b.Bytes())
	s.c.metrics.DiskBytesWritten.Add(int64(b.Len()))
	if s.blocks == nil {
		s.blocks = make(map[string]shuffle.Block)
	}
	s.blocks[name] = b
	return name, nil
}

// Read hands out the spilled run's write-once DFS storage when it is one
// block, and copies it into a pooled buffer otherwise; the writer releases
// the block once it has decoded the run.
func (s *dfsSpillStore) Read(name string) (shuffle.Block, error) {
	f, err := s.c.fs.Open(name)
	if err != nil {
		return shuffle.Block{}, err
	}
	s.c.metrics.DiskBytesRead.Add(f.Size())
	if data, ok := f.Contiguous(); ok {
		return shuffle.LentBlock(data, f.Size(), 0), nil
	}
	return shuffle.PooledBlock(f.AppendTo(memory.DefaultPool.Get(int(f.Size()))), f.Size(), 0), nil
}

func (s *dfsSpillStore) Remove(name string) {
	s.c.fs.Delete(name)
	b := s.blocks[name]
	b.Release()
	delete(s.blocks, name)
}

// runMapTask scans split m, maps each batch the scan yields through the
// shared shuffle core and materializes its partitioned map output. Under
// the engine's default sort strategy the writer spills sorted, combined runs
// to the DFS whenever the io.sort buffer fills and merges them into one
// sorted segment per reduce partition — Hadoop's map side, verbatim. Under
// shuffle.strategy=hash the segments stay unsorted and the reduce side sorts
// after the fetch. segs[r] receives the block partition r's segment is
// written from; Run releases it when it deletes the segment.
func runMapTask[I any, K cmp.Ordered, V any](c *Cluster, jobID int64, name string, m int,
	scan func(m int, yield func([]I) error) error, splitBytes int64, reduces int,
	job Job[I, K, V], partition func(K, int) int, codec serde.Codec[core.Pair[K, V]], segs []shuffle.Block) (err error) {
	c.metrics.TasksLaunched.Add(1)
	c.metrics.DiskBytesRead.Add(splitBytes)

	spec := shuffle.Spec[core.Pair[K, V]]{
		NumParts: reduces,
		Codec:    codec,
		Route:    func(p core.Pair[K, V]) int { return partition(p.Key, reduces) },
		Less:     func(a, b core.Pair[K, V]) bool { return a.Key < b.Key },
		Key:      shuffle.PairKey[K, V](),
		// MapReduce keys always sort in natural order, so the binary
		// normalized-key sort applies whenever K has one.
		NormKey: serde.PairNormKeyer[K, V](serde.NormKeyerFor[K]()),
	}
	if combine := job.Combine; combine != nil {
		// One values slice for the task, lent to every call (Job.Combine).
		var vs []V
		spec.CombineRun = func(run []core.Pair[K, V]) []core.Pair[K, V] {
			out := run[:0] // folded over the writer's scratch (Spec.CombineRun)
			for i := 0; i < len(run); {
				j := i + 1
				for j < len(run) && run[j].Key == run[i].Key {
					j++
				}
				vs = groupValues(vs, run[i:j])
				out = append(out, core.KV(run[i].Key, combine(run[i].Key, vs)))
				i = j
			}
			return out
		}
	}
	w := shuffle.NewWriter(spec, shuffle.Env{
		Settings: c.shuffleSet,
		Metrics:  c.metrics,
		Spill:    &dfsSpillStore{c: c, job: jobID, m: m},
		Emit: func(r int, b shuffle.Block) error {
			// The materialized segment the barrier guards; wire bytes hit
			// the DFS under the shared accounting rule. The DFS file is the
			// block's storage, so the block is kept, not released, until the
			// job's cleanup deletes the segment (Run).
			c.fs.WriteFile(segmentFile(jobID, m, r), b.Bytes())
			segs[r] = b
			c.metrics.AddShuffleWrite(int64(b.Len()), b.Raw, true)
			return nil
		},
	})
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("map task %d panicked: %v", m, r)
		}
		if err != nil {
			// A failed attempt leaves no spilled runs on the DFS behind.
			w.Abort()
		}
	}()
	// Map output buffers into an exec.batch.size scratch and reaches the
	// shuffle writer in batches — one WriteBatch per full buffer instead of
	// one Write per emitted pair.
	var emitErr error
	batch := make([]core.Pair[K, V], 0, c.conf.ExecBatchSize)
	flush := func() {
		if emitErr == nil && len(batch) > 0 {
			emitErr = w.WriteBatch(batch)
		}
		batch = batch[:0]
	}
	emit := func(k K, v V) {
		if emitErr != nil {
			return
		}
		batch = append(batch, core.KV(k, v))
		if len(batch) == cap(batch) {
			flush()
		}
	}
	err = scan(m, func(recs []I) error {
		c.metrics.RecordsRead.Add(int64(len(recs)))
		for _, rec := range recs {
			job.Map(rec, emit)
			if emitErr != nil {
				return emitErr
			}
		}
		return nil
	})
	if err == nil {
		flush()
		err = emitErr
	}
	if err == nil {
		err = w.Close()
	}
	return err
}

// runReduceTask fetches partition r's segment from every map output,
// sort-merges them and reduces each key group. The merge of the sorted
// segments runs as parallel subtasks on the reduce node through
// cluster.Runtime (Hadoop's merge threads) instead of one sequential pass;
// hash-strategy segments carry no order and are sorted after the fetch.
// segs are the map side's kept blocks, segs[m*reduces+r]: a fetched segment
// takes its record count from the block it was written from, so it decodes
// into one slice of its size.
func runReduceTask[I any, K cmp.Ordered, V any](c *Cluster, jobID int64, name string, r, reduces int,
	segs []shuffle.Block, job Job[I, K, V], codec serde.Codec[core.Pair[K, V]]) (_ []core.Pair[K, V], err error) {
	c.metrics.TasksLaunched.Add(1)
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("reduce task %d panicked: %v", r, rec)
		}
	}()
	node := c.rt.NodeFor(r)
	maps := len(segs) / reduces
	blocks := make([]shuffle.Block, 0, maps)
	for m := 0; m < maps; m++ {
		f, err := c.fs.Open(segmentFile(jobID, m, r))
		if err != nil {
			return nil, fmt.Errorf("shuffle fetch %s: %w", segmentFile(jobID, m, r), err)
		}
		// Local iff the segment's DFS replica lives on the reduce node —
		// the materialized shuffle really fetches from the filesystem (see
		// the accounting rule in internal/metrics). A local single-block
		// segment is read zero-copy (borrowing the DFS storage); anything
		// remote — or spanning blocks — copies into a pooled buffer.
		local := replicaNode(f, 0) == node
		recs := segs[m*reduces+r].Recs
		var blk shuffle.Block
		if data, ok := f.Contiguous(); ok && local {
			blk = shuffle.LentBlock(data, f.Size(), recs)
		} else {
			buf := f.AppendTo(memory.DefaultPool.Get(int(f.Size())))
			blk = shuffle.PooledBlock(buf, f.Size(), recs)
		}
		c.metrics.AddShuffleRead(int64(blk.Len()), local)
		c.metrics.DiskBytesRead.Add(int64(blk.Len()))
		blocks = append(blocks, blk)
	}
	segments, err := shuffle.DecodeBlocks(c.shuffleSet, codec, blocks)
	for i := range blocks {
		blocks[i].Release()
	}
	if err != nil {
		return nil, err
	}
	less := func(a, b core.Pair[K, V]) bool { return a.Key < b.Key }
	normKey := serde.PairNormKeyer[K, V](serde.NormKeyerFor[K]())
	var merged []core.Pair[K, V]
	switch {
	case c.shuffleSet.Kind == shuffle.Sort:
		// Heads are ordered by their normalized-key prefixes first, as
		// Hadoop's merger compares serialized keys with a raw comparator.
		merged = shuffle.ParallelMerge(c.rt, node, segments, less, normKey)
	case normKey != nil:
		// Unordered hash segments are sorted whole by the same raw
		// comparison: the stable order of the comparator sort below.
		merged = shuffle.Concat(segments)
		shuffle.SortByNormKey(merged, normKey)
	default:
		merged = shuffle.Concat(segments)
		sort.SliceStable(merged, func(i, j int) bool { return less(merged[i], merged[j]) })
	}

	if job.Reduce == nil {
		// Identity reducer: the merged stream, in key order, is the output.
		return merged, nil
	}
	var out []core.Pair[K, V]
	var vs []V // lent to every Reduce call (Job.Reduce)
	emit := func(k K, v V) { out = append(out, core.KV(k, v)) }
	for i := 0; i < len(merged); {
		j := i + 1
		for j < len(merged) && merged[j].Key == merged[i].Key {
			j++
		}
		vs = groupValues(vs, merged[i:j])
		job.Reduce(merged[i].Key, vs, emit)
		i = j
	}
	return out, nil
}

// groupValues refills vs with the values of one key group, reusing its
// storage: the slice a combiner or reducer is lent. A group larger than vs
// grows it once, to the group's size.
func groupValues[K comparable, V any](vs []V, group []core.Pair[K, V]) []V {
	vs = slices.Grow(vs[:0], len(group))
	for _, kv := range group {
		vs = append(vs, kv.Value)
	}
	return vs
}
