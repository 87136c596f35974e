package spark

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// wordKernel is a hand-written fused kernel for FusedNarrow: string records
// become (word, 1) pairs, pushed to the sink 256 at a time from one reused
// scratch slice, as the dataflow layer's kernels do. fault, when non-nil, is
// asked before each partition's second half.
func wordKernel(fault func() error) func(sink func([]core.Pair[string, int64]) error) any {
	return func(sink func([]core.Pair[string, int64]) error) any {
		scratch := make([]core.Pair[string, int64], 0, 256)
		flush := func() error {
			if len(scratch) == 0 {
				return nil
			}
			err := sink(scratch)
			scratch = scratch[:0]
			return err
		}
		return func(words []string) error {
			for i, w := range words {
				if i == len(words)/2 && fault != nil {
					if err := fault(); err != nil {
						return err
					}
				}
				scratch = append(scratch, core.KV(w, int64(1)))
				if len(scratch) == cap(scratch) {
					if err := flush(); err != nil {
						return err
					}
				}
			}
			return flush()
		}
	}
}

// shuffleHeld sums the shuffle memory the context's heaps have granted and
// not been given back.
func shuffleHeld(c *Context) int64 {
	var held int64
	for _, h := range c.heaps {
		held += h.Snapshot().ShuffleUsed
	}
	return held
}

// TestStreamFailureAfterWriterIsFed covers the order streaming creates: the
// map writer exists, and has been granted heap for thousands of held keys,
// when its upstream fails. A transient failure must retry into a fresh
// writer and produce the fault-free result; a permanent one must fail the
// job; and either way the failed attempt registers no map output and every
// granted byte is back (AllocShuffle == FreeShuffle).
func TestStreamFailureAfterWriterIsFed(t *testing.T) {
	words := make([]string, 40000)
	for i := range words {
		words[i] = fmt.Sprint("w", i%20000) // 10 000 distinct keys per half partition: ~9 grants
	}
	count := func(c *Context, fault func() error) (map[string]int64, *shuffleDep, error) {
		src := Parallelize(c, words, 2)
		pairs := FusedNarrow(src, "Fused[Map]", core.OpMap, wordKernel(fault))
		sums := ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, 2)
		m, err := CollectAsMap(sums)
		return m, sums.parents[0].shuffle, err
	}

	want, _, err := count(testContext(t, nil), nil)
	if err != nil || len(want) != 20000 {
		t.Fatalf("fault-free run: %d keys, %v", len(want), err)
	}

	t.Run("transient", func(t *testing.T) {
		c := testContext(t, nil)
		var faults atomic.Int64
		got, _, err := count(c, func() error {
			if faults.Add(1) <= 3 { // both partitions' first attempts, and one second attempt
				return &TransientError{Err: errors.New("injected")}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("transient upstream failures should be retried: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d keys after retries, want %d", len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("count[%q] = %d after retries, want %d (a retry fed a half-fed writer?)", k, got[k], v)
			}
		}
		if held := shuffleHeld(c); held != 0 {
			t.Errorf("%d bytes of shuffle memory still granted after the job", held)
		}
	})

	t.Run("permanent", func(t *testing.T) {
		c := testContext(t, nil)
		boom := errors.New("upstream broke")
		_, sd, err := count(c, func() error { return boom })
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the upstream's error", err)
		}
		if missing := c.shuffles.missingMaps(sd.id, sd.numMaps); len(missing) != sd.numMaps {
			t.Errorf("failed map tasks registered outputs: only %v of %d missing", missing, sd.numMaps)
		}
		if held := shuffleHeld(c); held != 0 {
			t.Errorf("%d bytes of shuffle memory still granted after the failed job", held)
		}
	})
}

// TestForEachBatchStreamsUnlessPersisted pins which path a folding consumer
// takes: an unpersisted fused RDD streams (many batches, no compute), a
// persisted one goes through iterator — one call with the cached partition,
// and a cache hit the second time.
func TestForEachBatchStreamsUnlessPersisted(t *testing.T) {
	c := testContext(t, nil)
	words := make([]string, 3000)
	for i := range words {
		words[i] = fmt.Sprint("w", i)
	}
	var computes atomic.Int64
	build := func() *RDD[core.Pair[string, int64]] {
		r := FusedNarrow(Parallelize(c, words, 1), "Fused[Map]", core.OpMap, wordKernel(nil))
		gather := r.compute
		r.compute = func(p int, tc *taskContext) ([]core.Pair[string, int64], error) {
			computes.Add(1)
			return gather(p, tc)
		}
		return r
	}
	tc := &taskContext{node: 0, heap: c.heapFor(0), metrics: c.metrics, ctx: c}
	batches := func(r *RDD[core.Pair[string, int64]]) (calls, recs int) {
		err := r.forEachBatch(0, tc, func(_ int, b []core.Pair[string, int64]) error {
			calls++
			recs += len(b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return calls, recs
	}

	if calls, recs := batches(build()); calls != 12 || recs != 3000 || computes.Load() != 0 {
		t.Errorf("unpersisted: %d batches, %d records, %d computes; want 12 streamed batches and no gather", calls, recs, computes.Load())
	}
	cached := build().Cache()
	for pass := 1; pass <= 2; pass++ {
		if calls, recs := batches(cached); calls != 1 || recs != 3000 || computes.Load() != 1 {
			t.Errorf("persisted, pass %d: %d batches, %d records, %d computes; want the one cached partition", pass, calls, recs, computes.Load())
		}
	}
	if n, err := Count(build()); err != nil || n != 3000 || computes.Load() != 1 {
		t.Errorf("Count = %d, %v with %d computes; want 3000 folded from the stream", n, err, computes.Load())
	}
}
