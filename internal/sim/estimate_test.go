package sim

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine/mapreduce"
)

// laptopSpec mirrors the rig the estimate constants were fitted on.
func laptopSpec() cluster.Spec {
	return cluster.Spec{Nodes: 2, CoresPerNode: 8, MemPerNode: core.GB, DiskSeqMiBps: 200, NetMiBps: 200}
}

func estConf(strat, comp string, par int) *core.Config {
	return core.NewConfig().
		Set(core.ShuffleStrategy, strat).
		Set(core.ShuffleCompress, comp).
		SetInt(core.SparkDefaultParallelism, par).
		SetInt(core.FlinkDefaultParallelism, par).
		SetInt(mapreduce.MRReduceTasks, par)
}

func mustEstimate(t *testing.T, plan PlanStats, in InputStats, engine EngineKind, strat, comp string, par int) CostEstimate {
	t.Helper()
	est, err := Estimate(plan, in, Params{Spec: laptopSpec(), Engine: engine, Conf: estConf(strat, comp, par)})
	if err != nil {
		t.Fatalf("Estimate(%v, %s/%s/p=%d): %v", engine, strat, comp, par, err)
	}
	if est.Seconds <= 0 {
		t.Fatalf("Estimate(%v, %s/%s/p=%d): non-positive seconds %v", engine, strat, comp, par, est.Seconds)
	}
	return est
}

func TestEstimateRequiresInputBytes(t *testing.T) {
	_, err := Estimate(PlanStats{Workload: "wc", Shape: EstAggregate}, InputStats{}, Params{Spec: laptopSpec()})
	if err == nil {
		t.Fatal("Estimate with zero input bytes should fail")
	}
}

// TestEstimateWordCountRankings pins the orderings the ext10 probe sweep
// measured on the real engines for the Aggregate shape.
func TestEstimateWordCountRankings(t *testing.T) {
	plan := PlanStats{Workload: "WordCount", Shape: EstAggregate}
	for _, bytes := range []int64{192 * 1024, 768 * 1024} {
		in := InputStats{Bytes: bytes}
		sparkHash := mustEstimate(t, plan, in, Spark, "hash", "none", 8)
		sparkSort := mustEstimate(t, plan, in, Spark, "sort", "none", 8)
		sparkLZ := mustEstimate(t, plan, in, Spark, "hash", "lz", 8)
		mrHash := mustEstimate(t, plan, in, MapReduce, "hash", "none", 8)
		flink := mustEstimate(t, plan, in, Flink, "hash", "none", 2)

		// This pin read "hash beats sort" while spark's sort writer buffered
		// every (word, 1) pair and regrouped the buffer at cut time. It now
		// folds a pair into its key's entry on arrival, as the hash writer
		// does, and the calibration sweep has the sort path level with or
		// just under the hash path: 20.7 against 24.1 ms at 768 KiB/p=2, 20.1
		// against 21.4 at p=8, within 0.3 ms of each other at 192 KiB.
		if sparkSort.Seconds > sparkHash.Seconds {
			t.Errorf("bytes=%d: spark sort (%v) should not lose to hash (%v) on aggregates", bytes, sparkSort.Seconds, sparkHash.Seconds)
		}
		if sparkHash.Seconds >= sparkLZ.Seconds {
			t.Errorf("bytes=%d: lz compression (%v) should not pay at laptop bandwidth (none=%v)", bytes, sparkLZ.Seconds, sparkHash.Seconds)
		}
		if sparkHash.Seconds >= mrHash.Seconds {
			t.Errorf("bytes=%d: spark (%v) should beat mapreduce (%v)", bytes, sparkHash.Seconds, mrHash.Seconds)
		}
		// The pipelined exchange — no materialized shuffle, no stage
		// barrier — is the fastest WordCount of the sweep.
		if flink.Seconds >= sparkHash.Seconds {
			t.Errorf("bytes=%d: flink (%v) should beat spark (%v) on WordCount", bytes, flink.Seconds, sparkHash.Seconds)
		}
	}

	// Flink's per-channel work makes its aggregate cost grow with
	// parallelism — the paper's Section VI-A parallelism sensitivity.
	in := InputStats{Bytes: 768 * 1024}
	if p2, p8 := mustEstimate(t, plan, in, Flink, "hash", "none", 2), mustEstimate(t, plan, in, Flink, "hash", "none", 8); p2.Seconds >= p8.Seconds {
		t.Errorf("flink aggregate should prefer low parallelism: p2=%v p8=%v", p2.Seconds, p8.Seconds)
	}
}

// TestEstimateTeraSortRankings pins the Sort-shape orderings.
func TestEstimateTeraSortRankings(t *testing.T) {
	plan := PlanStats{Workload: "TeraSort", Shape: EstSort}
	for _, bytes := range []int64{400 * 1000, 1600 * 1000} {
		in := InputStats{Bytes: bytes, Records: bytes / 100}
		for _, eng := range []EngineKind{Spark, MapReduce} {
			sortS := mustEstimate(t, plan, in, eng, "sort", "none", 2)
			hashS := mustEstimate(t, plan, in, eng, "hash", "none", 2)
			if sortS.Seconds >= hashS.Seconds {
				t.Errorf("%v bytes=%d: sort strategy (%v) should beat hash+re-sort (%v)", eng, bytes, sortS.Seconds, hashS.Seconds)
			}
		}
		p2 := mustEstimate(t, plan, in, Spark, "sort", "none", 2)
		p8 := mustEstimate(t, plan, in, Spark, "sort", "none", 8)
		if p2.Seconds >= p8.Seconds {
			t.Errorf("bytes=%d: spark sort should prefer p=2 (%v) over p=8 (%v)", bytes, p2.Seconds, p8.Seconds)
		}
	}
}

// TestEstimateCardinality pins MapReduce's strategy ranking at both ends of
// the cardinality range. It used to pin a flip — hash/p=8 at the default
// distinct fraction, sort/p=2 at full cardinality — which the normalized-key
// sort took out of the measurement: the sort rows now run under the hash rows
// everywhere (per-cell medians of six `make calibrate` sweeps, 768 KiB: sort
// 38.4 ms at p=2 and 36.65 at p=8 against hash 52.95 and 44.25; unique keys,
// 4×192 KiB: sort 47.2 and 51.65 against hash 62.15 and 52.9). What is left
// of the cardinality effect is that at p=2 the hash path loses more to it
// than the sort path does (its gap to sort widens by 1.5-1.9 ms a 192 KiB
// wave; at p=8 the reading is inside the noise and is not pinned), and that
// hash still prefers p=8.
func TestEstimateCardinality(t *testing.T) {
	plan := PlanStats{Workload: "WordCount", Shape: EstAggregate}
	low := InputStats{Bytes: 768 * 1024}
	high := InputStats{Bytes: 768 * 1024, DistinctFrac: 1}

	lowHash8 := mustEstimate(t, plan, low, MapReduce, "hash", "none", 8)
	lowHash2 := mustEstimate(t, plan, low, MapReduce, "hash", "none", 2)
	highHash8 := mustEstimate(t, plan, high, MapReduce, "hash", "none", 8)
	highHash2 := mustEstimate(t, plan, high, MapReduce, "hash", "none", 2)
	for _, par := range []int{2, 8} {
		lowSort := mustEstimate(t, plan, low, MapReduce, "sort", "none", par)
		if lowSort.Seconds >= lowHash8.Seconds {
			t.Errorf("default cardinality: mr sort/p%d (%v) should beat hash/p8 (%v)", par, lowSort.Seconds, lowHash8.Seconds)
		}
		highSort := mustEstimate(t, plan, high, MapReduce, "sort", "none", par)
		if highSort.Seconds >= highHash8.Seconds {
			t.Errorf("full cardinality: mr sort/p%d (%v) should beat hash/p8 (%v)", par, highSort.Seconds, highHash8.Seconds)
		}
	}
	if lowHash8.Seconds >= lowHash2.Seconds {
		t.Errorf("default cardinality: mr hash should prefer p=8 (%v) over p=2 (%v)", lowHash8.Seconds, lowHash2.Seconds)
	}
	lowSort2 := mustEstimate(t, plan, low, MapReduce, "sort", "none", 2)
	highSort2 := mustEstimate(t, plan, high, MapReduce, "sort", "none", 2)
	if hash, sort := highHash2.Seconds-lowHash2.Seconds, highSort2.Seconds-lowSort2.Seconds; hash <= sort {
		t.Errorf("p=2: cardinality should cost the mr hash path (+%v) more than the sort path (+%v)", hash, sort)
	}

	// More distinct keys → more shuffled bytes and records, on every engine.
	if lowHash8.ShuffleRawBytes >= highHash8.ShuffleRawBytes {
		t.Errorf("raw shuffle volume should grow with cardinality: low=%d high=%d", lowHash8.ShuffleRawBytes, highHash8.ShuffleRawBytes)
	}
	if lowHash8.ShuffleRecords >= highHash8.ShuffleRecords {
		t.Errorf("shuffle records should grow with cardinality: low=%d high=%d", lowHash8.ShuffleRecords, highHash8.ShuffleRecords)
	}
}

// TestEstimateStages checks the per-stage breakdown invariants the monitor
// relies on: stage seconds sum to the total and the shuffle volume is
// attributed to the producing stage.
func TestEstimateStages(t *testing.T) {
	plan := PlanStats{Workload: "WordCount", Shape: EstAggregate}
	in := InputStats{Bytes: 768 * 1024}
	for _, eng := range []EngineKind{Spark, MapReduce, Flink} {
		est := mustEstimate(t, plan, in, eng, "hash", "none", 4)
		var sum float64
		var raw int64
		for _, st := range est.Stages {
			sum += st.Seconds
			raw += st.ShuffleRawBytes
		}
		if diff := sum - est.Seconds; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%v: stage seconds sum %v != total %v", eng, sum, est.Seconds)
		}
		if raw != est.ShuffleRawBytes {
			t.Errorf("%v: stage raw bytes %d != total %d", eng, raw, est.ShuffleRawBytes)
		}
		if eng == Flink && len(est.Stages) != 1 {
			t.Errorf("flink should present one pipeline stage, got %d", len(est.Stages))
		}
		if eng != Flink && len(est.Stages) != 2 {
			t.Errorf("%v should present map+reduce stages, got %d", eng, len(est.Stages))
		}
	}
}

// TestEstimateDeterministic: two identical calls agree bit-for-bit (the
// planner memoizes nothing and relies on this).
func TestEstimateDeterministic(t *testing.T) {
	plan := PlanStats{Workload: "KMeans", Shape: EstIterate, Iterations: 5}
	in := InputStats{Bytes: 1 << 20}
	a := mustEstimate(t, plan, in, Spark, "hash", "none", 8)
	b := mustEstimate(t, plan, in, Spark, "hash", "none", 8)
	if a.Seconds != b.Seconds || a.ShuffleRawBytes != b.ShuffleRawBytes || a.ShuffleRecords != b.ShuffleRecords {
		t.Fatalf("Estimate not deterministic: %v vs %v", a, b)
	}
}
