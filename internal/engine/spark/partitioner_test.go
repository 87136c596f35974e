package spark

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// kvs is a pair input with repeated keys: 60 records over 13 keys.
func kvs() []core.Pair[int64, int64] {
	out := make([]core.Pair[int64, int64], 60)
	for i := range out {
		out[i] = core.KV(int64(i*7%13), int64(i))
	}
	return out
}

// hashPartitioned is kvs() shuffled by a 4-way hash partitioner, cached and
// materialised, so later jobs read it in place.
func hashPartitioned(t *testing.T, c *Context) *RDD[core.Pair[int64, int64]] {
	t.Helper()
	r := PartitionBy(Parallelize(c, kvs(), 3), core.NewHashPartitioner[int64](4)).Cache()
	if _, err := Count(r); err != nil {
		t.Fatal(err)
	}
	return r
}

// shuffleMapStages runs job and returns how many shuffle-map stages it
// launched and how many shuffle bytes it wrote.
func shuffleMapStages(t *testing.T, c *Context, job func() error) (stages int, bytes int64) {
	t.Helper()
	// The observer runs on the driver goroutine, between stages.
	c.metrics.SetStageObserver(func(ev metrics.StageEvent) {
		if strings.HasPrefix(ev.Name, "shuffle-") {
			stages++
		}
	})
	defer c.metrics.SetStageObserver(nil)
	before := c.metrics.ShuffleBytesWritten.Load()
	if err := job(); err != nil {
		t.Fatal(err)
	}
	return stages, c.metrics.ShuffleBytesWritten.Load() - before
}

// multiset renders records in a canonical order.
func multiset[T any](recs []T) string {
	s := make([]string, len(recs))
	for i, r := range recs {
		s[i] = fmt.Sprint(r)
	}
	slices.Sort(s)
	return strings.Join(s, " ")
}

// TestPartitionerKeptOrDropped is the table of which operators know where
// their keys are: the shuffling operators set the partitioner they shuffled
// by, the ones that cannot move a key keep their input's, and every other
// one drops it.
func TestPartitionerKeptOrDropped(t *testing.T) {
	c := testContext(t, nil)
	hp := partitionerKey[int64](core.NewHashPartitioner[int64](4))
	in := PartitionBy(Parallelize(c, kvs(), 3), core.NewHashPartitioner[int64](4))
	plain := Parallelize(c, kvs(), 4)
	sum := func(a, b int64) int64 { return a + b }
	id := func(p core.Pair[int64, int64]) core.Pair[int64, int64] { return p }
	for _, row := range []struct {
		op   string
		got  any
		want any
	}{
		{"PartitionBy", in.partitioner, hp},
		{"ReduceByKey", ReduceByKey(plain, sum, 4).partitioner, hp},
		{"GroupByKey", GroupByKey(plain, 4).partitioner, hp},
		{"CombineByKey within partitions", ReduceByKey(in, sum, 4).partitioner, hp},
		{"CoGroup", CoGroup(plain, plain, core.NewHashPartitioner[int64](4)).partitioner, hp},
		{"Filter", Filter(in, func(core.Pair[int64, int64]) bool { return true }).partitioner, hp},
		{"MapValues", MapValues(in, func(_, v int64) int64 { return v }).partitioner, hp},
		{"Cache", in.Cache().partitioner, hp},
		{"Map", Map(in, id).partitioner, nil},
		{"MapToPair", MapToPair(in, id).partitioner, nil},
		{"MapPartitions", MapPartitions(in, func(p []core.Pair[int64, int64]) []core.Pair[int64, int64] { return p }).partitioner, nil},
		{"FusedNarrow", FusedNarrow[core.Pair[int64, int64]](in, "Fused", core.OpMap,
			func(sink func([]core.Pair[int64, int64]) error) any { return sink }).partitioner, nil},
		{"Parallelize", plain.partitioner, nil},
	} {
		if !samePartitioner(row.got, row.want) && (row.got != nil || row.want != nil) {
			t.Errorf("%s: partitioner %v, want %v", row.op, row.got, row.want)
		}
	}
}

// TestPartitionerEquality pins Spark's Partitioner.equals: hash partitioners
// are equal by key type and partition count, any other partitioner only to
// itself, and an unknown partitioner to nothing.
func TestPartitionerEquality(t *testing.T) {
	fn := &core.FuncPartitioner[int64]{N: 4, Fn: func(k int64, n int) int { return int(k) % n }}
	rp := core.NewRangePartitioner(4, []int64{1, 2, 3, 4, 5, 6}, func(a, b int64) bool { return a < b })
	for _, row := range []struct {
		name string
		a, b any
		want bool
	}{
		{"hash, same count", partitionerKey[int64](core.NewHashPartitioner[int64](4)), partitionerKey[int64](core.NewHashPartitioner[int64](4)), true},
		{"hash, other count", partitionerKey[int64](core.NewHashPartitioner[int64](4)), partitionerKey[int64](core.NewHashPartitioner[int64](3)), false},
		{"hash, other key type", partitionerKey[int64](core.NewHashPartitioner[int64](4)), partitionerKey[string](core.NewHashPartitioner[string](4)), false},
		{"hash vs func", partitionerKey[int64](core.NewHashPartitioner[int64](4)), partitionerKey[int64](fn), false},
		{"func, itself", partitionerKey[int64](fn), partitionerKey[int64](fn), true},
		{"func, an equal twin", partitionerKey[int64](fn), partitionerKey[int64](&core.FuncPartitioner[int64]{N: 4, Fn: fn.Fn}), false},
		{"range, itself", partitionerKey[int64](rp), partitionerKey[int64](rp), true},
		{"unknown", nil, nil, false},
	} {
		if got := samePartitioner(row.a, row.b); got != row.want {
			t.Errorf("%s: samePartitioner = %v, want %v", row.name, got, row.want)
		}
	}
}

// TestCoPartitionedOperatorsDoNotShuffle runs each keyed operator on inputs
// that already have its partitioner: no shuffle-map stage, no shuffle
// byte, and the same records as the shuffled path over the same data
// without a partitioner.
func TestCoPartitionedOperatorsDoNotShuffle(t *testing.T) {
	sum := func(a, b int64) int64 { return a + b }
	side := func(c *Context) *RDD[core.Pair[int64, string]] {
		recs := make([]core.Pair[int64, string], 20)
		for i := range recs {
			recs[i] = core.KV(int64(i%9), fmt.Sprintf("r%d", i))
		}
		return Parallelize(c, recs, 2)
	}
	for _, op := range []struct {
		name string
		run  func(c *Context, l *RDD[core.Pair[int64, int64]], r *RDD[core.Pair[int64, string]]) (string, error)
	}{
		{"PartitionBy", func(c *Context, l *RDD[core.Pair[int64, int64]], _ *RDD[core.Pair[int64, string]]) (string, error) {
			out, err := Collect(PartitionBy(l, core.NewHashPartitioner[int64](4)))
			return multiset(out), err
		}},
		{"ReduceByKey", func(c *Context, l *RDD[core.Pair[int64, int64]], _ *RDD[core.Pair[int64, string]]) (string, error) {
			out, err := Collect(ReduceByKey(l, sum, 4))
			return multiset(out), err
		}},
		{"GroupByKey", func(c *Context, l *RDD[core.Pair[int64, int64]], _ *RDD[core.Pair[int64, string]]) (string, error) {
			out, err := Collect(GroupByKey(l, 4))
			for _, g := range out {
				slices.Sort(g.Value)
			}
			return multiset(out), err
		}},
		{"CoGroup", func(c *Context, l *RDD[core.Pair[int64, int64]], r *RDD[core.Pair[int64, string]]) (string, error) {
			out, err := Collect(CoGroup(l, r, core.NewHashPartitioner[int64](4)))
			for _, g := range out {
				slices.Sort(g.Value.Left)
				slices.Sort(g.Value.Right)
			}
			return multiset(out), err
		}},
	} {
		t.Run(op.name, func(t *testing.T) {
			c := testContext(t, nil)
			want, err := op.run(c, Parallelize(c, kvs(), 3), side(c))
			if err != nil {
				t.Fatal(err)
			}
			l := hashPartitioned(t, c)
			r := PartitionBy(side(c), core.NewHashPartitioner[int64](4)).Cache()
			if _, err := Count(r); err != nil {
				t.Fatal(err)
			}
			var got string
			stages, bytes := shuffleMapStages(t, c, func() (err error) {
				got, err = op.run(c, l, r)
				return err
			})
			if stages != 0 || bytes != 0 {
				t.Errorf("co-partitioned %s ran %d shuffle-map stages writing %d bytes, want none", op.name, stages, bytes)
			}
			if got != want {
				t.Errorf("co-partitioned %s = %s\nshuffled path = %s", op.name, got, want)
			}
		})
	}
}

// TestOtherPartitionerStillShuffles: a partitioner that is not equal to the
// input's — another partition count, another kind — shuffles as before, and
// a CoGroup shuffles exactly the side that lacks its partitioner.
func TestOtherPartitionerStillShuffles(t *testing.T) {
	c := testContext(t, nil)
	in := hashPartitioned(t, c)
	sum := func(a, b int64) int64 { return a + b }
	fn := &core.FuncPartitioner[int64]{N: 4, Fn: func(k int64, n int) int { return int(k) % n }}
	for _, row := range []struct {
		name   string
		job    func() error
		stages int
	}{
		{"ReduceByKey over 3 partitions", func() error { _, err := Collect(ReduceByKey(in, sum, 3)); return err }, 1},
		{"PartitionBy a 4-way func partitioner", func() error { _, err := Collect(PartitionBy(in, fn)); return err }, 1},
		{"CoGroup under a 4-way func partitioner", func() error {
			_, err := Collect(CoGroup(in, in, fn))
			return err
		}, 2},
		{"CoGroup with one side partitioned", func() error {
			_, err := Collect(CoGroup(in, Parallelize(c, kvs(), 2), core.NewHashPartitioner[int64](4)))
			return err
		}, 1},
		{"CoGroup of a mapped side", func() error {
			mapped := Map(in, func(p core.Pair[int64, int64]) core.Pair[int64, int64] { return p })
			_, err := Collect(CoGroup(in, mapped, core.NewHashPartitioner[int64](4)))
			return err
		}, 1},
	} {
		stages, bytes := shuffleMapStages(t, c, row.job)
		if stages != row.stages || bytes == 0 {
			t.Errorf("%s: %d shuffle-map stages writing %d bytes, want %d stages", row.name, stages, bytes, row.stages)
		}
	}
	// The same func partitioner twice: the second PartitionBy is a no-op.
	once := PartitionBy(in, fn)
	if again := PartitionBy(once, fn); again != once {
		t.Error("PartitionBy with the input's own partitioner built a new RDD")
	}
}

// FuzzCoGroup checks CoGroup against a map-based reference on
// random int64-keyed pairs with few distinct keys (so keys repeat on both
// sides): each side hash-partitioned beforehand or not, over its own random
// partition count, cogrouped under a target hash partitioner of random
// count — with flags&4 all three counts are equal, so both sides are read in
// place. Results compare as sorted multisets, and every cogrouped key must
// sit in the partition the target partitioner gives it.
func FuzzCoGroup(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(20), uint8(3), uint8(3), uint8(3), uint8(7))
	f.Add(int64(2), uint8(0), uint8(5), uint8(1), uint8(2), uint8(3), uint8(1))
	f.Add(int64(3), uint8(50), uint8(0), uint8(3), uint8(4), uint8(2), uint8(2))
	f.Add(int64(4), uint8(40), uint8(30), uint8(5), uint8(2), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nl, nr, pl, pr, pout, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		gen := func(n uint8) []core.Pair[int64, int64] {
			keys := rng.Int63n(12) + 1
			recs := make([]core.Pair[int64, int64], n)
			for i := range recs {
				recs[i] = core.KV(rng.Int63n(keys)-keys/2, rng.Int63n(100))
			}
			return recs
		}
		left, right := gen(nl), gen(nr)
		count := func(b uint8) int { return int(b%6) + 1 }
		nL, nR, nOut := count(pl), count(pr), count(pout)
		if flags&4 != 0 {
			nR, nOut = nL, nL
		}
		c := testContext(t, nil)
		side := func(recs []core.Pair[int64, int64], n int, partitioned bool) *RDD[core.Pair[int64, int64]] {
			r := Parallelize(c, recs, n)
			if partitioned {
				r = PartitionBy(r, core.NewHashPartitioner[int64](n))
			}
			return r
		}
		l, r := side(left, nL, flags&1 != 0), side(right, nR, flags&2 != 0)
		part := core.NewHashPartitioner[int64](nOut)

		type group struct{ l, r []int64 }
		ref := map[int64]*group{}
		at := func(k int64) *group {
			if ref[k] == nil {
				ref[k] = &group{}
			}
			return ref[k]
		}
		for _, kv := range left {
			at(kv.Key).l = append(at(kv.Key).l, kv.Value)
		}
		for _, kv := range right {
			at(kv.Key).r = append(at(kv.Key).r, kv.Value)
		}
		var wantGroups []string
		for k, g := range ref {
			slices.Sort(g.l)
			slices.Sort(g.r)
			wantGroups = append(wantGroups, fmt.Sprint(k, g.l, g.r))
		}

		perPart := make([][]string, nOut) // tasks run concurrently: one slot each
		err := ForeachPartition(CoGroup(l, r, part), func(p int, data []core.Pair[int64, CoGrouped[int64, int64]]) error {
			perPart[p] = nil
			for _, g := range data {
				if part.Partition(g.Key) != p {
					t.Errorf("key %d cogrouped in partition %d, partitioner says %d", g.Key, p, part.Partition(g.Key))
				}
				ls, rs := slices.Clone(g.Value.Left), slices.Clone(g.Value.Right)
				slices.Sort(ls)
				slices.Sort(rs)
				perPart[p] = append(perPart[p], fmt.Sprint(g.Key, ls, rs))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		gotGroups := slices.Concat(perPart...)
		slices.Sort(wantGroups)
		slices.Sort(gotGroups)
		if !slices.Equal(gotGroups, wantGroups) {
			t.Errorf("CoGroup = %v\nwant      %v", gotGroups, wantGroups)
		}
	})
}
