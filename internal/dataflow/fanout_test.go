package dataflow_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
)

// TestFusedFanOutIsNotMaterialised runs a chain whose output dwarfs its
// input — every input becomes 1 000 records, all of one key — into
// ReduceByKey, and bounds what building and running the job allocates
// (MemStats.TotalAlloc) by the bytes of ONE output partition of the chain:
// 1 M pairs of 16 bytes. The chain's output is folded as it is produced, so
// the job allocates a few batches of scratch plus the shuffle's own buffers;
// an engine that gathered the chain's output before folding it would
// allocate each of the two partitions, and twice over while the slice grew.
// The expansion function returns one shared slice, so the plan itself
// allocates nothing per record.
//
// mapreduce's map side is sort-then-combine by design: the sort buffer holds
// every arriving pair and each spill sorts, groups and encodes its 65 536,
// which costs ≈ 17 bytes per record whatever feeds it (33 MiB a job: the
// combiner's value slices; the run sorter's scratch is the writer's and is
// allocated once). Its bound is therefore on what the chain ADDS: the same
// job over the 2 M pairs built beforehand, outside the measurement, is the
// baseline. A difference of two
// large readings has to be of repeatable readings: the spill buffers are
// pooled, a collection empties the pool, and when collections fall depends
// on the box. So every measured run starts from one collection and runs with
// the collector off, after an unmeasured run that fills the pool — every
// engine, so that the three figures are read the same way. Over fifteen runs,
// at GOMAXPROCS 1, 2 and 8, the chain added 3.3 MiB on mapreduce (36 MiB
// against 33) and the jobs allocated 4.3 and 3.4 MiB on spark and flink,
// every time, against 15.3 MiB for one partition.
func TestFusedFanOutIsNotMaterialised(t *testing.T) {
	const inputs, fanOut = 2_000, 1_000
	const partitionBytes = inputs * fanOut / 2 * 16
	in := make([]int64, inputs)
	thousand := make([]int64, fanOut)
	add := func(a, b int64) int64 { return a + b }
	fused := func(s *dataflow.Session) *dataflow.Dataset[kv] {
		wide := dataflow.FlatMap(dataflow.FromSlice(s, in, 2), func(int64) []int64 { return thousand })
		return dataflow.MapToPair(wide, func(v int64) kv { return core.KV(v, int64(1)) })
	}
	// allocated runs plan → ReduceByKey → Collect on a fresh session and
	// returns the bytes allocated from building the plan to the result.
	allocated := func(engine string, plan func(*dataflow.Session) *dataflow.Dataset[kv]) uint64 {
		s := vectorSession(t, engine, 16) // 16 inputs a batch: 16 000 records of scratch
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := dataflow.Collect(dataflow.ReduceByKey(plan(s), add))
		runtime.ReadMemStats(&after)
		if err != nil || len(out) != 1 || out[0] != core.KV[int64, int64](0, inputs*fanOut) {
			t.Fatalf("%s: %v, %v; want one key counting %d", engine, out, err, inputs*fanOut)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, engine := range dataflow.Names() {
		var got uint64
		what := "the job"
		allocated(engine, fused) // fills the buffer pool
		if engine != "mapreduce" {
			got = allocated(engine, fused)
		} else {
			pairs := make([]kv, inputs*fanOut)
			for i := range pairs {
				pairs[i].Value = 1
			}
			with := allocated(engine, fused)
			base := allocated(engine, func(s *dataflow.Session) *dataflow.Dataset[kv] {
				return dataflow.FromSlice(s, pairs, 2)
			})
			runtime.KeepAlive(pairs)
			t.Logf("%s: %d MiB with the fused chain, %d MiB over pairs built beforehand", engine, with>>20, base>>20)
			got, what = with-min(with, base), "the fused chain"
		}
		t.Logf("%s: %s allocates %.1f MiB; one partition of the chain's output is %.1f MiB",
			engine, what, float64(got)/(1<<20), float64(partitionBytes)/(1<<20))
		if got >= partitionBytes {
			t.Errorf("%s: %s allocates %d bytes, as much as a materialised partition of its output (%d bytes)",
				engine, what, got, partitionBytes)
		}
	}
}
