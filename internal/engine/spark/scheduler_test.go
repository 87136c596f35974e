package spark

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// fetchTestRDD builds a 4-map shuffle over the test cluster so every node
// (round-robin placement) holds at least one map output.
func fetchTestRDD(c *Context) *RDD[core.Pair[string, int64]] {
	words := []string{"a", "b", "c", "d", "a", "b", "a", "c", "d", "d", "b", "a"}
	pairs := MapToPair(Parallelize(c, words, 4), func(w string) core.Pair[string, int64] {
		return core.KV(w, int64(1))
	})
	return ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, 4)
}

// TestFetchFailedResubmitsMapStage drives the scheduler's errFetchFailed →
// stage-resubmission path end to end: a result-stage task loses a node
// mid-stage (its map outputs vanish AFTER runStages saw them complete), the
// re-fetch genuinely fails, and runJob must resubmit, recompute the missing
// map outputs from lineage and succeed on the next attempt.
func TestFetchFailedResubmitsMapStage(t *testing.T) {
	c := testContext(t, nil)
	counts := fetchTestRDD(c)
	sd := counts.deps()[0].shuffle
	if sd == nil {
		t.Fatal("ReduceByKey has no shuffle dependency")
	}

	var attempts atomic.Int64
	err := runJob(counts, "TestFetchFailure", func(p int, _ []core.Pair[string, int64], tc *taskContext) error {
		if p == 0 && attempts.Add(1) == 1 {
			// Lose node 1 between the map barrier and this task's read —
			// the window the FetchFailed path exists for.
			c.FailNode(1)
			_, ferr := c.shuffles.fetch(sd.id, p, tc)
			if ferr == nil {
				t.Error("fetch after FailNode reported no error")
			}
			return ferr
		}
		return nil
	})
	if err != nil {
		t.Fatalf("job did not recover from the fetch failure: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("result partition 0 ran %d times, want 2 (original + resubmission)", got)
	}
	if got := c.Metrics().Recomputations.Load(); got != 1 {
		t.Errorf("Recomputations = %d, want 1", got)
	}
	if missing := c.shuffles.missingMaps(sd.id, sd.numMaps); len(missing) != 0 {
		t.Errorf("map outputs %v still missing after resubmission", missing)
	}

	// The recomputed shuffle must still produce correct counts.
	got, err := Collect(counts)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
	want := "[{a 4} {b 3} {c 2} {d 3}]"
	if fmt.Sprint(got) != want {
		t.Errorf("counts after recovery = %v, want %v", got, want)
	}
}

// TestFetchFailedRetriesAreBounded pins maxStageRetries: a fetch failure
// that never heals must surface after the bounded number of resubmissions
// instead of looping forever.
func TestFetchFailedRetriesAreBounded(t *testing.T) {
	c := testContext(t, nil)
	counts := fetchTestRDD(c)
	var attempts atomic.Int64
	err := runJob(counts, "TestPermanentFetchFailure", func(p int, _ []core.Pair[string, int64], _ *taskContext) error {
		if p != 0 {
			return nil
		}
		attempts.Add(1)
		return fmt.Errorf("%w: injected permanent failure", errFetchFailed)
	})
	if !errors.Is(err, errFetchFailed) {
		t.Fatalf("job error = %v, want errFetchFailed", err)
	}
	if got := attempts.Load(); got != maxStageRetries+1 {
		t.Errorf("result partition 0 ran %d times, want %d (original + %d retries)",
			got, maxStageRetries+1, maxStageRetries)
	}
	if got := c.Metrics().Recomputations.Load(); got != maxStageRetries {
		t.Errorf("Recomputations = %d, want %d", got, maxStageRetries)
	}
}

// TestUserPanicIsATaskFailure: a panic in a user function fails its task
// like any other error — the job returns an error naming the stage and the
// partition instead of crashing the process. A map task that panics
// mid-write registers no output and hands its shuffle memory back, and the
// context runs the next job as usual.
func TestUserPanicIsATaskFailure(t *testing.T) {
	c := testContext(t, nil)
	// Every map task holds 1 500 distinct keys — enough to take a shuffle
	// memory grant — before its first repeated key reaches the combiner,
	// which panics.
	ids := make([]int64, 8000)
	for i := range ids {
		ids[i] = int64(i)
	}
	pairs := MapToPair(Parallelize(c, ids, 4), func(v int64) core.Pair[int64, int64] {
		return core.KV(v%1500, int64(1))
	})
	counts := ReduceByKey(pairs, func(a, b int64) int64 { panic("combine blew up") }, 4)
	_, err := Collect(counts)
	if err == nil || !strings.Contains(err.Error(), "map stage for shuffle") ||
		!strings.Contains(err.Error(), "task ") || !strings.Contains(err.Error(), "combine blew up") {
		t.Errorf("map-side panic: Collect = %v, want an error naming the map stage, the task and the panic", err)
	}
	sd := counts.deps()[0].shuffle
	if missing := c.shuffles.missingMaps(sd.id, sd.numMaps); len(missing) != sd.numMaps {
		t.Errorf("map outputs %v are missing, want all %d: a panicked task registered its output", missing, sd.numMaps)
	}
	for node, h := range c.heaps {
		if used := h.Snapshot().ShuffleUsed; used != 0 {
			t.Errorf("node %d holds %d shuffle bytes after the failed map stage", node, used)
		}
	}

	_, err = Collect(Map(Parallelize(c, []int64{1, 2, 3, 4}, 2), func(v int64) int64 {
		if v == 4 {
			panic("result blew up")
		}
		return v
	}))
	if err == nil || !strings.Contains(err.Error(), "result stage: task 1 panicked: result blew up") {
		t.Errorf("result-side panic: Collect = %v, want an error naming the result stage and task 1", err)
	}

	if n, err := Count(Parallelize(c, ids, 4)); err != nil || n != int64(len(ids)) {
		t.Errorf("after the failures Count = %d, %v; want %d", n, err, len(ids))
	}
}
