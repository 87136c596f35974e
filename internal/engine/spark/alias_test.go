package spark

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
)

// TestReduceSideStringsOutliveThePool: spark's reduce side decodes the map
// outputs in place — a local block as a view of the shuffle service's kept
// storage, a remote block as a view of the fetch's own copy, an lz block as a
// view of the frame it was decompressed into — so the strings it hands on
// view bytes no pool recycles. They must read the same after a second job
// has taken the pool's buffers and written them, and after a node's outputs
// were dropped and recomputed; after each, every buffer on the pool's free
// lists is overwritten as well, and under the race detector every released
// buffer is poisoned (memory.Poison) besides. A decode that left strings
// viewing a pooled buffer — a remote fetch into a pooled copy, a kept output
// still in its writer's buffer — reads the scribble.
func TestReduceSideStringsOutliveThePool(t *testing.T) {
	defer func(pool *memory.BufPool) { memory.DefaultPool = pool }(memory.DefaultPool)
	memory.DefaultPool = &memory.BufPool{}
	records := func(value string) []core.Pair[string, string] {
		recs := make([]core.Pair[string, string], 2000)
		for i := range recs {
			recs[i] = core.KV(fmt.Sprintf("key%06d", i), fmt.Sprintf("%s of record %06d, padded to a TeraSort-like width", value, i))
		}
		return recs
	}
	for _, compress := range []string{"none", "lz"} {
		c := testContext(t, func(conf *core.Config) { conf.Set(core.ShuffleCompress, compress) })
		shuffle := func(recs []core.Pair[string, string]) *RDD[core.Pair[string, string]] {
			return PartitionBy(Parallelize(c, recs, 8), hashPartitioner[string](c, 4))
		}
		shuffled := shuffle(records("value"))
		got, err := Collect(shuffled)
		if err != nil {
			t.Fatalf("%s: %v", compress, err)
		}
		if m := c.Metrics(); m.LocalBytesRead.Load() == 0 || m.RemoteBytesRead.Load() == 0 {
			t.Fatalf("%s: read %d local and %d remote bytes; the test needs both", compress,
				m.LocalBytesRead.Load(), m.RemoteBytesRead.Load())
		}
		want := make([]core.Pair[string, string], len(got))
		for i, p := range got {
			want[i] = core.KV(strings.Clone(p.Key), strings.Clone(p.Value))
		}
		check := func(after string) {
			t.Helper()
			scribblePool()
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: after %s, record %d reads %q, was %q", compress, after, i, got[i], want[i])
				}
			}
		}

		if _, err := Collect(shuffle(records("VALUE"))); err != nil {
			t.Fatalf("%s: second job: %v", compress, err)
		}
		check("a second job")

		c.FailNode(1)
		again, err := Collect(shuffled)
		if err != nil {
			t.Fatalf("%s: after FailNode: %v", compress, err)
		}
		check("FailNode and a recompute")
		if !reflect.DeepEqual(again, want) {
			t.Errorf("%s: the recomputed shuffle differs from the first", compress)
		}
	}
}

// scribblePool overwrites every buffer on memory.DefaultPool's free lists,
// as the next writers to take them would, and puts them back.
func scribblePool() {
	for size := 256; size <= 4<<20; size *= 2 {
		var held [][]byte
		for {
			_, _, misses := memory.DefaultPool.Stats()
			buf := memory.DefaultPool.Get(size)
			if _, _, m := memory.DefaultPool.Stats(); m != misses {
				break // the free list is empty; buf is a fresh allocation
			}
			buf = buf[:cap(buf)]
			for i := range buf {
				buf[i] = 0xA5
			}
			held = append(held, buf)
		}
		for _, buf := range held {
			memory.DefaultPool.Put(buf)
		}
	}
}
