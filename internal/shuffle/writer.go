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

	held    combineTable[R] // combining only: folded entries, or CombineRun's arrivals
	granted int64
	inRecs  int64
	outRecs int64
}

func newHashWriter[R any](spec Spec[R], env Env) *hashWriter[R] {
	return &hashWriter[R]{
		spec: spec,
		env:  env,
		bufs: make([][]byte, spec.NumParts),
		recs: make([]int64, spec.NumParts),
		held: newCombineTable(&spec),
	}
}

// Write implements Writer. Memory is asked for once per memCheckEvery held
// records — distinct keys under Merge, arrivals under CombineRun.
func (w *hashWriter[R]) Write(rec R) error {
	if !w.spec.combining() {
		_, err := w.emit(rec)
		return err
	}
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
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		return nil
	}
	for _, rec := range recs {
		p := w.spec.Route(rec)
		if p < 0 || p >= w.spec.NumParts {
			return fmt.Errorf("shuffle: record routed to partition %d of %d", p, w.spec.NumParts)
		}
		if w.bufs[p] == nil {
			w.bufs[p] = memory.DefaultPool.Get(memQuantum)
		}
		w.bufs[p] = serde.Append(w.spec.Codec, w.bufs[p], rec)
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
	for _, rec := range run {
		n, err := w.emit(rec)
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
func (w *hashWriter[R]) emit(rec R) (int, error) {
	p := w.spec.Route(rec)
	if p < 0 || p >= w.spec.NumParts {
		return 0, fmt.Errorf("shuffle: record routed to partition %d of %d", p, w.spec.NumParts)
	}
	if w.bufs[p] == nil {
		w.bufs[p] = memory.DefaultPool.Get(memQuantum)
	}
	before := len(w.bufs[p])
	w.bufs[p] = serde.Append(w.spec.Codec, w.bufs[p], rec)
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

// runSeg is one partition's slice of one spilled run: either resident bytes
// or a SpillStore handle.
type runSeg struct {
	data   []byte
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
	arrived     int64      // records written since the last cut
	runs        [][]runSeg // runs[i][part]
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
// record slice per partition (the in-memory form of a run). A record routed
// outside [0, NumParts) surfaces here as an error.
func (w *sortWriter[R]) cut() ([][]R, error) {
	parts := make([][]R, w.spec.NumParts)
	for _, rec := range w.held.entries {
		p := w.spec.Route(rec)
		if p < 0 || p >= w.spec.NumParts {
			return nil, fmt.Errorf("shuffle: record routed to partition %d of %d", p, w.spec.NumParts)
		}
		parts[p] = append(parts[p], rec)
	}
	if w.spec.Merge != nil && w.env.Metrics != nil {
		w.env.Metrics.CombineInputRecords.Add(w.arrived)
		w.env.Metrics.CombineOutputRecs.Add(int64(len(w.held.entries)))
	}
	for p, part := range parts {
		if w.spec.Less != nil {
			if w.spec.NormKey != nil {
				SortByNormKey(part, w.spec.NormKey)
			} else {
				sort.SliceStable(part, func(i, j int) bool { return w.spec.Less(part[i], part[j]) })
			}
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
	var runBytes, runRecs int64
	for p, part := range parts {
		enc := serde.EncodeAll(w.spec.Codec, nil, part)
		seg := runSeg{recs: int64(len(part))}
		if w.env.Spill != nil && len(enc) > 0 {
			h, err := w.env.Spill.Write(len(w.runs), p, enc)
			if err != nil {
				return err
			}
			seg.handle = h
		} else {
			seg.data = enc
		}
		run[p] = seg
		runBytes += int64(len(enc))
		runRecs += int64(len(part))
	}
	w.runs = append(w.runs, run)
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
			seg := run[p]
			data := seg.data
			if seg.handle != "" {
				var err error
				data, err = w.env.Spill.Read(seg.handle)
				if err != nil {
					return err
				}
			}
			if len(data) == 0 {
				continue
			}
			recs, err := serde.DecodeAll(w.spec.Codec, data)
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
			final = w.combine(Merge(segs, w.spec.Less))
		default:
			// No record order: runs concatenate in spill order
			// (tungsten's partition-prefix sort never orders keys).
			final = Concat(segs)
		}
		// One quantum holds a small block. A block whose first record says
		// it will be larger — its encoding times the record count, plus a
		// sixteenth — moves to a pooled buffer of that size before the rest
		// is encoded, rather than doubling its way up to megabytes.
		enc := memory.DefaultPool.Get(memQuantum)
		if len(final) > 0 {
			enc = serde.EncodeAll(w.spec.Codec, enc, final[:1])
			if size := len(enc) * len(final); size+size/16 > cap(enc) {
				first := enc
				enc = append(memory.DefaultPool.Get(size+size/16), first...)
				memory.DefaultPool.Put(first)
			}
			enc = serde.EncodeAll(w.spec.Codec, enc, final[1:])
		}
		if err := w.env.Emit(p, seal(w.env.Settings, enc, int64(len(final)))); err != nil {
			return err
		}
	}
	w.release()
	return nil
}

// release removes the spilled runs from the SpillStore and returns the
// granted memory.
func (w *sortWriter[R]) release() {
	if w.env.Spill != nil {
		for _, run := range w.runs {
			for _, seg := range run {
				if seg.handle != "" {
					w.env.Spill.Remove(seg.handle)
				}
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

// SortByNormKey orders a run by memcmp over packed normalized keys: one
// pass extracts every record's key into a single pooled buffer and a 16-byte
// entry per record — the key's first eight bytes as a big-endian integer
// (zero-padded), its length, and the record's arrival index — and the
// entries sort on their own, without a reflect swapper or a byte-slice
// compare per comparison. Two keys whose prefixes differ order as their
// prefixes do: a padded zero only ever stands below a real byte of the
// longer key, or level with a real zero. On a prefix tie, keys of at most
// eight bytes are equal up to that padding, so the shorter one — a proper
// prefix of the other — goes first and the key bytes are not touched; only
// when one of the two is longer than the prefix does bytes.Compare read the
// whole keys. Ties keep arrival order, matching sort.SliceStable under Less.
// The records are permuted once at the end. No Less calls, no per-comparison
// decoding. The key writer must be TOTAL and agree with the Less the caller
// would otherwise sort with — serde.NormKeyerFor builds conforming writers
// for ordered scalar keys.
func SortByNormKey[R any](part []R, key func(v R, dst []byte) []byte) {
	if len(part) < 2 {
		return
	}
	type entry struct {
		prefix    uint64
		klen, idx int32
	}
	buf := memory.DefaultPool.Get(len(part) * 16)
	ends := make([]int32, len(part)) // ends[i] is where record i's key stops in buf
	entries := make([]entry, len(part))
	for i, rec := range part {
		off := len(buf)
		buf = key(rec, buf)
		k := buf[off:]
		var prefix uint64
		if len(k) >= 8 {
			prefix = binary.BigEndian.Uint64(k)
		} else {
			for _, b := range k {
				prefix = prefix<<8 | uint64(b)
			}
			prefix <<= 8 * uint(8-len(k))
		}
		ends[i] = int32(len(buf))
		entries[i] = entry{prefix: prefix, klen: int32(len(k)), idx: int32(i)}
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		if a.klen > 8 || b.klen > 8 {
			ea, eb := ends[a.idx], ends[b.idx]
			if c := bytes.Compare(buf[ea-a.klen:ea], buf[eb-b.klen:eb]); c != 0 {
				return c
			}
		} else if a.klen != b.klen {
			return cmp.Compare(a.klen, b.klen)
		}
		return cmp.Compare(a.idx, b.idx) // stability: equal keys keep arrival order
	})
	out := make([]R, len(part))
	for pos, e := range entries {
		out[pos] = part[e.idx]
	}
	copy(part, out)
	memory.DefaultPool.Put(buf)
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
			if spec.Same(acc, rec) {
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
