package shuffle

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/memory"
	"repro/internal/serde"
)

// --- hash strategy ----------------------------------------------------------

// hashWriter is the bucketed repartition: records are serialized into
// per-partition buffers as they arrive and can flush downstream before
// end-of-input (the pipelined exchange). Map-side combining holds records in
// the combine table, which drains into the buckets when the memory grant is
// refused.
type hashWriter[R any] struct {
	spec Spec[R]
	env  Env

	bufs [][]byte
	recs []int64
	// bucketCap sizes a fresh bucket: one quantum, or the largest block a
	// pipelined flush has sent. WriteBatch checks the flush threshold once a
	// batch, so a bucket overshoots FlushBytes by up to a batch's bytes; sized
	// from the last overshoot, the next bucket holds its batch without
	// regrowing.
	bucketCap int

	held    combineTable[R] // combining only: folded entries, or CombineRun's arrivals
	granted int64
	inRecs  int64
	outRecs int64
}

func newHashWriter[R any](spec Spec[R], env Env) *hashWriter[R] {
	return &hashWriter[R]{
		spec:      spec,
		env:       env,
		bufs:      make([][]byte, spec.NumParts),
		recs:      make([]int64, spec.NumParts),
		bucketCap: memQuantum,
		held:      newCombineTable(&spec),
	}
}

// Write implements Writer.
func (w *hashWriter[R]) Write(rec R) error {
	if w.spec.combining() {
		return w.add(rec)
	}
	_, err := w.emit(&rec)
	return err
}

// add folds one record into the combine table. Memory is asked for once per
// memCheckEvery held records — distinct keys under Merge, arrivals under
// CombineRun.
func (w *hashWriter[R]) add(rec R) error {
	w.inRecs++
	before := len(w.held.entries)
	w.held.add(rec)
	n := len(w.held.entries)
	if n == before || n%memCheckEvery != 0 || w.env.Mem == nil {
		return nil
	}
	if w.env.Mem(memQuantum) {
		w.granted += memQuantum
		return nil
	}
	return w.drain(true)
}

// WriteBatch implements Writer. The combining path still inserts record by
// record (the table lookup is inherently per key), but the plain bucketed
// path serializes the whole batch with the pipelined-flush check hoisted
// out of the record loop — one threshold scan per batch instead of one
// per record.
func (w *hashWriter[R]) WriteBatch(recs []R) error {
	if w.spec.combining() {
		for _, rec := range recs {
			if err := w.add(rec); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range recs {
		p := w.spec.Route(recs[i])
		if p < 0 || p >= w.spec.NumParts {
			return fmt.Errorf("shuffle: record routed to partition %d of %d", p, w.spec.NumParts)
		}
		if w.bufs[p] == nil {
			w.bufs[p] = memory.DefaultPool.Get(w.bucketCap)
		}
		w.bufs[p] = w.spec.Codec.EncodeAt(w.bufs[p], &recs[i])
		w.recs[p]++
	}
	if w.env.Settings.FlushBytes > 0 {
		for p := range w.bufs {
			if int64(len(w.bufs[p])) >= w.env.Settings.FlushBytes {
				if err := w.flush(p); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// drain empties the combine table into the buckets; spilled marks a
// memory-pressure drain (counted as a spill, like the tungsten aggregation
// map falling back to its buckets).
func (w *hashWriter[R]) drain(spilled bool) error {
	run := w.held.entries
	if len(run) == 0 {
		return nil
	}
	if w.spec.Merge == nil {
		run = w.spec.CombineRun(groupByKey(run, &w.spec))
	}
	var bytes int64
	for i := range run {
		n, err := w.emit(&run[i])
		if err != nil {
			return err
		}
		bytes += int64(n)
	}
	w.outRecs += int64(len(run))
	w.held.reset()
	if spilled && w.env.Metrics != nil {
		w.env.Metrics.SpillCount.Add(1)
		w.env.Metrics.SpillBytes.Add(bytes)
	}
	return nil
}

// emit serializes one outgoing record into its bucket, flushing downstream
// when the pipelined threshold is reached. It returns the encoded size.
func (w *hashWriter[R]) emit(rec *R) (int, error) {
	p := w.spec.Route(*rec)
	if p < 0 || p >= w.spec.NumParts {
		return 0, fmt.Errorf("shuffle: record routed to partition %d of %d", p, w.spec.NumParts)
	}
	if w.bufs[p] == nil {
		w.bufs[p] = memory.DefaultPool.Get(w.bucketCap)
	}
	before := len(w.bufs[p])
	w.bufs[p] = w.spec.Codec.EncodeAt(w.bufs[p], rec)
	w.recs[p]++
	added := len(w.bufs[p]) - before
	if w.env.Settings.FlushBytes > 0 && int64(len(w.bufs[p])) >= w.env.Settings.FlushBytes {
		return added, w.flush(p)
	}
	return added, nil
}

// flush seals one bucket, sends it downstream (ownership transfers to the
// Emit receiver) and resets the bucket.
func (w *hashWriter[R]) flush(p int) error {
	raw := w.bufs[p]
	if len(raw) == 0 {
		return nil
	}
	w.bucketCap = max(w.bucketCap, len(raw))
	b := seal(w.env.Settings, raw, w.recs[p])
	w.bufs[p] = nil
	w.recs[p] = 0
	return w.env.Emit(p, b)
}

// Close implements Writer: drain the combine table, emit one final block
// per partition (empty ones included) and release granted memory.
func (w *hashWriter[R]) Close() error {
	if w.spec.combining() {
		if err := w.drain(false); err != nil {
			return err
		}
		if w.env.Metrics != nil {
			w.env.Metrics.CombineInputRecords.Add(w.inRecs)
			w.env.Metrics.CombineOutputRecs.Add(w.outRecs)
		}
	}
	for p := range w.bufs {
		b := seal(w.env.Settings, w.bufs[p], w.recs[p])
		w.bufs[p] = nil
		w.recs[p] = 0
		if err := w.env.Emit(p, b); err != nil {
			return err
		}
	}
	w.release()
	return nil
}

func (w *hashWriter[R]) release() {
	if w.granted > 0 && w.env.Free != nil {
		w.env.Free(w.granted)
		w.granted = 0
	}
}

// Abort implements Writer: the buckets go back to the pool unsealed, the
// combine table empties and the granted memory returns.
func (w *hashWriter[R]) Abort() {
	for p := range w.bufs {
		if w.bufs[p] != nil {
			memory.DefaultPool.Put(w.bufs[p])
			w.bufs[p] = nil
		}
	}
	w.held.reset()
	w.release()
}

// --- sort strategy ----------------------------------------------------------

// runSeg is one partition's slice of one spilled run: a resident pooled
// block, or a SpillStore handle.
type runSeg struct {
	blk    Block
	handle string
	recs   int64
}

// sortWriter is the spill-and-merge shuffle: records are held until the
// memory grant is refused or a threshold trips, then spill as a partitioned
// (and, with Less, sorted) run; Close merges every run into one final
// segment per partition. With Merge set the held records are the combine
// table's entries — one per distinct key, folded on arrival, as Spark's
// size-estimated PartitionedAppendOnlyMap holds them — so every threshold and
// memory grant counts entries, and a run is combined before it is cut.
type sortWriter[R any] struct {
	spec Spec[R]
	env  Env

	held        combineTable[R]
	sorter      runSorter[R] // cut's scratch, kept across spills
	arrived     int64        // records written since the last cut
	runs        [][]runSeg   // runs[i][part]
	granted     int64
	bytesPerRec float64 // running encoded-size estimate for SpillBytes
	spilledRecs int64
	spilledByte int64
}

func newSortWriter[R any](spec Spec[R], env Env) *sortWriter[R] {
	return &sortWriter[R]{spec: spec, env: env, held: newCombineTable(&spec), bytesPerRec: 64}
}

// Write implements Writer. Route validation happens in cut (the one place
// Route must run anyway), so the fast path is an append or a fold plus
// threshold checks.
func (w *sortWriter[R]) Write(rec R) error {
	before := len(w.held.entries)
	w.held.add(rec)
	w.arrived++
	return w.check(before)
}

// WriteBatch implements Writer: without a pairwise combiner the whole batch
// appends in one copy; either way the spill/memory thresholds are consulted
// once, at batch granularity.
func (w *sortWriter[R]) WriteBatch(recs []R) error {
	before := len(w.held.entries)
	w.held.addAll(recs)
	w.arrived += int64(len(recs))
	return w.check(before)
}

// check applies the spill and memory-pressure thresholds after the held
// records grew from `before` to their current count. Memory is granted one
// quantum per memCheckEvery records crossed, matching the per-record path.
func (w *sortWriter[R]) check(before int) error {
	n := len(w.held.entries)
	set := w.env.Settings
	if set.SpillRecs > 0 && n >= set.SpillRecs {
		return w.spill()
	}
	if set.SpillBytes > 0 && int64(float64(n)*w.bytesPerRec) >= set.SpillBytes {
		return w.spill()
	}
	if w.env.Mem != nil {
		for crossed := n/memCheckEvery - before/memCheckEvery; crossed > 0; crossed-- {
			if w.env.Mem(memQuantum) {
				w.granted += memQuantum
			} else {
				return w.spill()
			}
		}
	}
	return nil
}

// cut partitions, orders and combines the held records, returning one
// record slice per partition (the in-memory form of a run) — subslices of the
// sorter's one gathered run, valid until the next cut. A record routed
// outside [0, NumParts) surfaces here as an error.
func (w *sortWriter[R]) cut() ([][]R, error) {
	held := w.held.entries
	if err := w.sorter.partition(held, w.spec.NumParts, w.spec.Route); err != nil {
		return nil, err
	}
	if w.spec.Merge != nil && w.env.Metrics != nil {
		w.env.Metrics.CombineInputRecords.Add(w.arrived)
		w.env.Metrics.CombineOutputRecs.Add(int64(len(held)))
	}
	var run []R
	if w.spec.Less != nil && w.spec.NormKey != nil {
		run = w.sorter.sortByKey(held, w.spec.NormKey)
	} else {
		run = w.sorter.scatter(held)
	}
	parts := make([][]R, w.spec.NumParts)
	lo := 0
	for p, hi := range w.sorter.starts[:w.spec.NumParts] {
		part := run[lo:hi:hi]
		lo = hi
		if w.spec.Less != nil && w.spec.NormKey == nil {
			sort.SliceStable(part, func(i, j int) bool { return w.spec.Less(part[i], part[j]) })
		}
		if w.spec.Merge == nil && w.spec.CombineRun != nil {
			// Run-level combine: the entries are arrivals, and CombineRun
			// wants equal keys adjacent. (Under Merge they are unique.)
			if w.spec.Less == nil {
				part = groupByKey(part, &w.spec)
			}
			part = w.combine(part)
		}
		parts[p] = part
	}
	w.held.reset()
	w.arrived = 0
	return parts, nil
}

// combine folds a partition slice whose equal keys are adjacent — a run
// under CombineRun, or sorted runs merged at Close — counting the reduction
// like the engines' combiners do.
func (w *sortWriter[R]) combine(part []R) []R {
	if !w.spec.combining() || len(part) == 0 {
		return part
	}
	in := len(part)
	part = combineAdjacent(part, w.spec)
	if w.env.Metrics != nil {
		w.env.Metrics.CombineInputRecords.Add(int64(in))
		w.env.Metrics.CombineOutputRecs.Add(int64(len(part)))
	}
	return part
}

// spill materializes the held records as one run.
func (w *sortWriter[R]) spill() error {
	if len(w.held.entries) == 0 {
		return nil
	}
	parts, err := w.cut()
	if err != nil {
		return err
	}
	run := make([]runSeg, w.spec.NumParts)
	w.runs = append(w.runs, run) // released by Close or Abort however this ends
	var runBytes, runRecs int64
	for p, part := range parts {
		blk := PooledBlock(encodeBlock(w.spec.Codec, part), 0, int64(len(part)))
		runBytes += int64(blk.Len())
		runRecs += int64(len(part))
		run[p].recs = int64(len(part))
		if w.env.Spill == nil || blk.Len() == 0 {
			run[p].blk = blk
			continue
		}
		h, err := w.env.Spill.Write(len(w.runs)-1, p, blk)
		if err != nil {
			return err
		}
		run[p].handle = h
	}
	w.spilledByte += runBytes
	w.spilledRecs += runRecs
	if w.spilledRecs > 0 {
		w.bytesPerRec = float64(w.spilledByte) / float64(w.spilledRecs)
	}
	if w.env.Metrics != nil {
		w.env.Metrics.SpillCount.Add(1)
		w.env.Metrics.SpillBytes.Add(runBytes)
	}
	return nil
}

// Close implements Writer: merge the spilled runs with the in-memory tail
// and emit one final block per partition.
func (w *sortWriter[R]) Close() error {
	tail, err := w.cut()
	if err != nil {
		return err
	}
	for p := 0; p < w.spec.NumParts; p++ {
		var segs [][]R
		for _, run := range w.runs {
			seg := &run[p]
			blk := seg.blk
			seg.blk = Block{} // the writer's own run goes back once decoded
			if seg.handle != "" {
				var err error
				blk, err = w.env.Spill.Read(seg.handle)
				if err != nil {
					return err
				}
			}
			if blk.Len() == 0 {
				blk.Release()
				continue
			}
			// Decoded records never alias the block, so it goes back to
			// its owner at once.
			recs, err := serde.DecodeAllN(w.spec.Codec, blk.Bytes(), int(seg.recs))
			blk.Release()
			if err != nil {
				return err
			}
			segs = append(segs, recs)
		}
		if len(tail[p]) > 0 {
			segs = append(segs, tail[p])
		}
		var final []R
		switch {
		case len(segs) == 1:
			final = segs[0]
		case w.spec.Less != nil:
			// Sorted runs merge like Hadoop's loser tree, with the
			// combiner re-applied across runs.
			final = w.combine(MergeByNormKey(segs, w.spec.Less, w.spec.NormKey))
		default:
			// No record order: runs concatenate in spill order
			// (tungsten's partition-prefix sort never orders keys).
			final = Concat(segs)
		}
		enc := encodeBlock(w.spec.Codec, final)
		if err := w.env.Emit(p, seal(w.env.Settings, enc, int64(len(final)))); err != nil {
			return err
		}
	}
	w.release()
	return nil
}

// encodeBlock encodes recs into a pooled buffer, nil for no records. One
// quantum holds a small block. A block whose first record says it will be
// larger — its encoding times the record count, plus a sixteenth — moves to a
// pooled buffer of that size before the rest is encoded, rather than doubling
// its way up to megabytes.
func encodeBlock[R any](codec serde.Codec[R], recs []R) []byte {
	if len(recs) == 0 {
		return nil
	}
	enc := codec.EncodeAt(memory.DefaultPool.Get(memQuantum), &recs[0])
	if size := len(enc) * len(recs); size+size/16 > cap(enc) {
		first := enc
		enc = append(memory.DefaultPool.Get(size+size/16), first...)
		memory.DefaultPool.Put(first)
	}
	return serde.EncodeAll(codec, enc, recs[1:])
}

// release returns the resident runs to the pool, removes the spilled ones
// from the SpillStore (which releases them) and returns the granted memory.
func (w *sortWriter[R]) release() {
	for _, run := range w.runs {
		for p := range run {
			run[p].blk.Release()
			if run[p].handle != "" {
				w.env.Spill.Remove(run[p].handle)
			}
		}
	}
	w.runs = nil
	if w.granted > 0 && w.env.Free != nil {
		w.env.Free(w.granted)
		w.granted = 0
	}
}

// Abort implements Writer: the held records and the spilled runs are dropped
// and the granted memory returns.
func (w *sortWriter[R]) Abort() {
	w.held.reset()
	w.arrived = 0
	w.release()
}

// --- the run sorter -----------------------------------------------------------

// sortEntry is one record of a run in the sorter's packed form: the first
// eight bytes of its normalized key as a big-endian integer (zero-padded),
// the key's length, and the record's arrival index. Sixteen bytes, no
// pointers: sorting a run moves these, never the records.
type sortEntry struct {
	prefix    uint64
	klen, idx int32
}

// radixCutoff is the segment size below which the radix passes' fixed cost
// (a 2048-counter histogram) exceeds a comparison sort of the entries.
const radixCutoff = 256

// runSorter partitions a run and orders each partition, for the sort writer's
// cut and for SortByNormKey. Everything it allocates is scratch that a writer
// keeps from one spill to the next; the slice it hands back is valid until
// its next use.
type runSorter[R any] struct {
	pids    []int32     // pids[i] is record i's partition
	starts  []int       // partition p's segment starts at starts[p]; once laid out, ends there
	entries []sortEntry // one per record, partition segments back to back
	scratch []sortEntry // the radix passes' other buffer
	keys    []byte      // the keys longer than the prefix, back to back
	ends    []int32     // ends[i] is where record i's key stops in keys
	out     []R         // the partitioned (and ordered) run
}

// sized returns s with length n, reallocating only when it is too small.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// partition routes every record once, leaving its partition in pids and every
// partition's first position in starts. A record routed outside
// [0, numParts) is an error.
func (s *runSorter[R]) partition(recs []R, numParts int, route func(R) int) error {
	s.pids = sized(s.pids, len(recs))
	s.starts = sized(s.starts, numParts+1)
	clear(s.starts)
	for i, rec := range recs {
		p := route(rec)
		if p < 0 || p >= numParts {
			return fmt.Errorf("shuffle: record routed to partition %d of %d", p, numParts)
		}
		s.pids[i] = int32(p)
		s.starts[p+1]++
	}
	for p := 1; p <= numParts; p++ {
		s.starts[p] += s.starts[p-1]
	}
	return nil
}

// scatter lays the partitioned records out partition by partition, each in
// arrival order: a stable counting sort on the partition id, all that
// tungsten-sort's partition-prefix ordering does. Afterwards partition p ends
// at starts[p].
func (s *runSorter[R]) scatter(recs []R) []R {
	s.out = sized(s.out, len(recs))
	for i, rec := range recs {
		p := s.pids[i]
		s.out[s.starts[p]] = rec
		s.starts[p]++
	}
	return s.out
}

// sortByKey lays one entry per partitioned record straight into its
// partition's segment, orders every segment by the rule SortByNormKey's
// comment gives and gathers the records once. Afterwards partition p ends at
// starts[p].
func (s *runSorter[R]) sortByKey(recs []R, key func(v R, dst []byte) []byte) []R {
	s.entries = sized(s.entries, len(recs))
	s.ends = sized(s.ends, len(recs))
	keys := s.keys[:0]
	if len(recs) > 0 {
		// Room for every key as long as the first, made once (keys of at most
		// eight bytes are not kept). Grown by append, ≈ 1.25× a step, keys
		// took ≈ 30 arrays in every new sorter: every flink sort, every sort
		// writer's first cut.
		if k := len(key(recs[0], keys)); k > 8 && cap(keys) < len(recs)*k {
			keys = make([]byte, 0, len(recs)*k)
		}
	}
	for i, rec := range recs {
		off := len(keys)
		keys = key(rec, keys)
		k := keys[off:]
		prefix := keyPrefix(k)
		if len(k) <= 8 {
			keys = keys[:off]
		}
		s.ends[i] = int32(len(keys))
		p := s.pids[i]
		s.entries[s.starts[p]] = sortEntry{prefix: prefix, klen: int32(len(k)), idx: int32(i)}
		s.starts[p]++
	}
	s.keys = keys
	ends := s.ends
	order := func(a, b sortEntry) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		if a.klen > 8 && b.klen > 8 {
			ea, eb := ends[a.idx], ends[b.idx]
			if c := bytes.Compare(keys[ea-a.klen:ea], keys[eb-b.klen:eb]); c != 0 {
				return c
			}
		} else if a.klen != b.klen {
			return cmp.Compare(a.klen, b.klen)
		}
		return cmp.Compare(a.idx, b.idx)
	}
	lo := 0
	for _, hi := range s.starts[:len(s.starts)-1] {
		if seg := s.entries[lo:hi]; len(seg) < radixCutoff {
			slices.SortFunc(seg, order)
		} else {
			s.scratch = sized(s.scratch, len(seg))
			radixSortPrefix(seg, s.scratch)
			// Fix-up: the radix passes are stable, so a run of equal prefixes
			// stands in arrival order, which is final when its keys are one
			// key. Only a run the prefix cannot decide is compared.
			for i := 0; i < len(seg); {
				j, decided := i+1, seg[i].klen <= 8
				for ; j < len(seg) && seg[j].prefix == seg[i].prefix; j++ {
					decided = decided && seg[j].klen == seg[i].klen
				}
				if !decided && j-i > 1 {
					slices.SortFunc(seg[i:j], order)
				}
				i = j
			}
		}
		lo = hi
	}
	s.out = sized(s.out, len(recs))
	for pos, e := range s.entries {
		s.out[pos] = recs[e.idx]
	}
	return s.out
}

// keyPrefix is a normalized key's first eight bytes as a big-endian integer,
// zero-padded when the key is shorter.
func keyPrefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var prefix uint64
	for _, b := range k {
		prefix = prefix<<8 | uint64(b)
	}
	return prefix << (8 * uint(8-len(k)))
}

// radixSortPrefix orders a by prefix with a stable least-significant-digit
// byte radix sort, tmp (as long as a) being the other buffer. One pass counts
// all eight digits; a digit the whole segment agrees on moves nothing and is
// skipped, so int64 keys of a small range take two scatters, not eight.
func radixSortPrefix(a, tmp []sortEntry) {
	var hist [8][256]int32
	for _, e := range a {
		p := e.prefix
		hist[0][byte(p)]++
		hist[1][byte(p>>8)]++
		hist[2][byte(p>>16)]++
		hist[3][byte(p>>24)]++
		hist[4][byte(p>>32)]++
		hist[5][byte(p>>40)]++
		hist[6][byte(p>>48)]++
		hist[7][byte(p>>56)]++
	}
	src, dst := a, tmp
	for d := range hist {
		h, shift := &hist[d], 8*d
		if h[byte(src[0].prefix>>shift)] == int32(len(a)) {
			continue
		}
		var sum int32
		for b, n := range h {
			h[b] = sum
			sum += n
		}
		for _, e := range src {
			b := byte(e.prefix >> shift)
			dst[h[b]] = e
			h[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// SortByNormKey orders a run in place by memcmp over its normalized keys —
// flink's normalized-key sort, and the sorter a sort writer cuts its runs
// with, over one segment. Each record becomes a packed sortEntry and only
// entries move: a stable LSD byte-radix sort on the prefix, then a fix-up
// pass that comparison-sorts the runs of equal prefix the prefix cannot
// decide; a segment under radixCutoff is comparison-sorted whole. The rule is
// the same either way. Two keys whose prefixes differ order as their prefixes
// do: a padded zero only ever stands below a real byte of the longer key, or
// level with a real zero. Keys with equal prefixes and at most eight bytes
// are equal up to that padding, so the shorter — a proper prefix of the other
// — goes first, and for the same reason a key of at most eight bytes goes
// before a longer one; such keys live entirely in their entries and their
// bytes are not kept. Only two keys both longer than the prefix are compared
// as bytes. Equal keys keep arrival order. That is sort.SliceStable under the
// Less the key writer agrees with, record for record, so what is encoded
// afterwards is byte-identical to a comparison sort's. The key writer must be
// TOTAL and agree with that Less — serde.NormKeyerFor builds conforming
// writers for ordered scalar keys. The scratch here lives for the call; a sort
// writer keeps its own across spills.
func SortByNormKey[R any](part []R, key func(v R, dst []byte) []byte) {
	if len(part) < 2 {
		return
	}
	var s runSorter[R]
	_ = s.partition(part, 1, func(R) int { return 0 }) // one segment: every route is valid
	copy(part, s.sortByKey(part, key))
}

// --- shared combine helpers -------------------------------------------------

// combineAdjacent folds runs of equal keys (which must already be
// adjacent): pairwise with Merge, or through CombineRun.
func combineAdjacent[R any](part []R, spec Spec[R]) []R {
	if len(part) == 0 {
		return part
	}
	if spec.Merge != nil {
		out := part[:0:0]
		acc := part[0]
		for _, rec := range part[1:] {
			if spec.Key.same(acc, rec) {
				acc = spec.Merge(acc, rec)
				continue
			}
			out = append(out, acc)
			acc = rec
		}
		return append(out, acc)
	}
	if spec.CombineRun != nil {
		return spec.CombineRun(part)
	}
	return part
}
