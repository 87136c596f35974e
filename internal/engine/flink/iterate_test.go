package flink

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

type kv = core.Pair[int64, int64]

func keyOf(p kv) int64 { return p.Key }

func pair(k, v int64) kv { return core.KV(k, v) }

// keepLeft maps a record to itself whatever the broadcast set holds: it puts
// a DataSet into the step's output without adding its records.
func keepLeft(p kv, _ []kv) kv { return p }

type joinedKV = core.Pair[int64, Joined[kv, kv]]

// Which input of the join under test is on the iteration's static path.
const (
	staticRight = iota
	staticLeft
	bothDynamic
)

// iteratedJoins runs a bulk iteration of n supersteps whose step joins a
// dynamic input with static records over q partitions, and returns each
// superstep's join output as sorted "key dynamic static" rows. The dynamic
// input starts as dyn and every superstep adds one to its keys, so each
// superstep matches another key set against the same static records. Under
// bothDynamic the static records reach the join through a map with the
// feedback as broadcast set, which puts them on the dynamic path.
func iteratedJoins(e *Env, dyn, static []kv, mode, parDyn, parStatic, q, n int) ([][]string, error) {
	st := FromSlice(e, static, parStatic)
	rows := make([][]string, n)
	var mu sync.Mutex
	superstep := -1
	final := IterateBulk(FromSlice(e, dyn, parDyn), n, func(cur *DataSet[kv]) *DataSet[kv] {
		superstep++
		s := superstep
		record := func(k, d, st int64) {
			mu.Lock()
			rows[s] = append(rows[s], fmt.Sprint(k, d, st))
			mu.Unlock()
		}
		var seen *DataSet[kv]
		switch mode {
		case staticLeft:
			seen = MapPartition(Join(st, cur, keyOf, keyOf, q), func(js []joinedKV) []kv {
				for _, j := range js {
					record(j.Key, j.Value.Right.Value, j.Value.Left.Value)
				}
				return nil
			})
		default:
			right := st
			if mode == bothDynamic {
				right = MapWithBroadcast(st, cur, func(p kv, _ []kv) kv { return p })
			}
			seen = MapPartition(Join(cur, right, keyOf, keyOf, q), func(js []joinedKV) []kv {
				for _, j := range js {
					record(j.Key, j.Value.Left.Value, j.Value.Right.Value)
				}
				return nil
			})
		}
		// The joins reach the next state as the broadcast set of a map that
		// keeps only the shifted records: the step's output depends on them,
		// so every superstep whose state is not empty runs them.
		shifted := Map(cur, func(p kv) kv { return pair(p.Key+1, p.Value) })
		return MapWithBroadcast(shifted, seen, keepLeft)
	})
	if _, err := Collect(final); err != nil {
		return nil, err
	}
	for _, r := range rows {
		sort.Strings(r)
	}
	return rows, nil
}

// refJoins is iteratedJoins' answer by nested loops.
func refJoins(dyn, static []kv, n int) [][]string {
	rows := make([][]string, n)
	for s := range rows {
		for _, d := range dyn {
			for _, st := range static {
				if d.Key+int64(s) == st.Key {
					rows[s] = append(rows[s], fmt.Sprint(st.Key, d.Value, st.Value))
				}
			}
		}
		sort.Strings(rows[s])
	}
	return rows
}

// TestCachedJoinMatchesUncached: a join whose static input is cached for the
// iteration run returns, superstep after superstep, the multiset a join
// outside any iteration returns and that nested loops compute — whichever
// input is static, with both inputs dynamic, with an empty static input,
// with keys missing on either side and with duplicate keys on both.
func TestCachedJoinMatchesUncached(t *testing.T) {
	dyn := []kv{pair(1, 10), pair(1, 11), pair(2, 20), pair(3, 30), pair(5, 50), pair(5, 51)}
	static := []kv{pair(1, 100), pair(2, 200), pair(2, 201), pair(2, 202), pair(4, 400), pair(6, 600), pair(6, 601)}
	for _, c := range []struct {
		name   string
		static []kv
		mode   int
	}{
		{"static right", static, staticRight},
		{"static left", static, staticLeft},
		{"both dynamic", static, bothDynamic},
		{"empty static right", nil, staticRight},
		{"empty static left", nil, staticLeft},
	} {
		e := testEnv(t, nil)
		want := refJoins(dyn, c.static, 3)
		got, err := iteratedJoins(e, dyn, c.static, c.mode, 2, 3, 4, 3)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: supersteps joined\n%v\nwant\n%v", c.name, got, want)
		}
		plain, err := Collect(Join(FromSlice(e, dyn, 2), FromSlice(e, c.static, 3), keyOf, keyOf, 4))
		if err != nil {
			t.Fatal(err)
		}
		rows := []string{}
		for _, j := range plain {
			rows = append(rows, fmt.Sprint(j.Key, j.Value.Left.Value, j.Value.Right.Value))
		}
		sort.Strings(rows)
		if fmt.Sprint(rows) != fmt.Sprint(want[0]) {
			t.Errorf("%s: the uncached join gave %v, want %v", c.name, rows, want[0])
		}
	}
}

// edgeIteration is a bulk or delta iteration of n supersteps over 16
// vertices whose step joins the state with 4 000 static edges and keeps
// one record per destination: a superstep shuffles 16 vertices and at
// most 32 combined messages, with the same bytes every superstep.
func edgeIteration(e *Env, delta bool, n int) (*DataSet[kv], []kv) {
	var verts, edges []kv
	for v := int64(0); v < 16; v++ {
		verts = append(verts, pair(v, 1))
	}
	for i := int64(0); i < 4000; i++ {
		edges = append(edges, pair(i%16, i*7%16))
	}
	es := FromSlice(e, edges, 2)
	step := func(cur *DataSet[kv]) *DataSet[kv] {
		msgs := Map(Join(cur, es, keyOf, keyOf, 2), func(j joinedKV) kv {
			return pair(j.Value.Right.Value, j.Value.Left.Value)
		})
		return Reduce(GroupBy(msgs, keyOf).WithParallelism(2), func(a, _ kv) kv { return a })
	}
	vs := FromSlice(e, verts, 2)
	if !delta {
		return IterateBulk(vs, n, step), edges
	}
	return IterateDelta(vs, vs, n, func(ws *DataSet[kv], _ func(int64) (int64, bool)) (*DataSet[kv], *DataSet[kv]) {
		next := step(ws)
		return next, next
	}), edges
}

// shuffleOnce is what one shuffle of recs by key over two partitions writes.
func shuffleOnce(t *testing.T, recs []kv) int64 {
	e := testEnv(t, nil)
	if _, err := Count(PartitionCustom(FromSlice(e, recs, 2), core.Partitioner[int64](core.NewHashPartitioner[int64](2)), keyOf)); err != nil {
		t.Fatal(err)
	}
	return e.Metrics().ShuffleBytesWritten.Load()
}

// TestCachedJoinShufflesStaticSideOncePerRun: inside both iteration kinds, a
// join with a static input shuffles that input on the first superstep only.
// Three more supersteps add the workset and the messages — a few hundred
// bytes — where re-shuffling the edges would add three times their bytes.
func TestCachedJoinShufflesStaticSideOncePerRun(t *testing.T) {
	for _, delta := range []bool{false, true} {
		written := map[int]int64{}
		var edgeBytes int64
		for _, n := range []int{2, 5} {
			e := testEnv(t, nil)
			it, edges := edgeIteration(e, delta, n)
			got, err := Collect(it)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 16 {
				t.Fatalf("delta=%v: %d vertices after %d supersteps, want 16", delta, len(got), n)
			}
			written[n] = e.Metrics().ShuffleBytesWritten.Load()
			edgeBytes = shuffleOnce(t, edges)
		}
		if written[2] < edgeBytes {
			t.Errorf("delta=%v: 2 supersteps wrote %d shuffle bytes, less than the edges' %d: the static input was never shuffled",
				delta, written[2], edgeBytes)
		}
		if extra := written[5] - written[2]; extra >= edgeBytes/4 {
			t.Errorf("delta=%v: 3 more supersteps wrote %d shuffle bytes (%d → %d), the edges alone are %d: the static input is re-shuffled",
				delta, extra, written[2], written[5], edgeBytes)
		}
	}
}

// TestCachedJoinIsRebuiltPerJob: the cache belongs to one iteration run, so
// a second job over the same iteration shuffles and builds the static input
// again and writes exactly what the first did.
func TestCachedJoinIsRebuiltPerJob(t *testing.T) {
	e := testEnv(t, nil)
	it, edges := edgeIteration(e, false, 3)
	var written []int64
	var results []string
	for job := 0; job < 2; job++ {
		before := e.Metrics().ShuffleBytesWritten.Load()
		got, err := Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		written = append(written, e.Metrics().ShuffleBytesWritten.Load()-before)
		sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
		results = append(results, fmt.Sprint(got))
	}
	if written[0] != written[1] || results[0] != results[1] {
		t.Errorf("two jobs over one iteration wrote %v shuffle bytes with results %v; want equal", written, results)
	}
	if edgeBytes := shuffleOnce(t, edges); written[1] < edgeBytes {
		t.Errorf("the second job wrote %d shuffle bytes, less than the edges' %d: it probed the first job's tables", written[1], edgeBytes)
	}
}

// TestCachedJoinFailsWhenTheStepChangesShape: a later superstep whose cached
// join at some position is not the first superstep's fails the job rather
// than probing another join's tables.
func TestCachedJoinFailsWhenTheStepChangesShape(t *testing.T) {
	for name, joins := range map[string]func(s int, cur, a, b *DataSet[kv]) []*DataSet[joinedKV]{
		"another static input": func(s int, cur, a, b *DataSet[kv]) []*DataSet[joinedKV] {
			if s == 1 {
				return []*DataSet[joinedKV]{Join(cur, a, keyOf, keyOf, 2)}
			}
			return []*DataSet[joinedKV]{Join(cur, b, keyOf, keyOf, 2)}
		},
		"another partition count": func(s int, cur, a, b *DataSet[kv]) []*DataSet[joinedKV] {
			return []*DataSet[joinedKV]{Join(cur, a, keyOf, keyOf, 1+s)}
		},
		"one more join": func(s int, cur, a, b *DataSet[kv]) []*DataSet[joinedKV] {
			if s == 1 {
				return []*DataSet[joinedKV]{Join(cur, a, keyOf, keyOf, 2)}
			}
			return []*DataSet[joinedKV]{Join(cur, a, keyOf, keyOf, 2), Join(cur, b, keyOf, keyOf, 2)}
		},
	} {
		e := testEnv(t, nil)
		recs := []kv{pair(1, 1), pair(2, 2)}
		a, b := FromSlice(e, recs, 2), FromSlice(e, recs, 2)
		superstep := 0
		it := IterateBulk(FromSlice(e, recs, 2), 3, func(cur *DataSet[kv]) *DataSet[kv] {
			superstep++
			next := cur
			for _, j := range joins(superstep, cur, a, b) {
				seen := Map(j, func(j joinedKV) kv { return j.Value.Left })
				next = MapWithBroadcast(next, seen, keepLeft)
			}
			return next
		})
		_, err := Collect(it)
		if err == nil || !strings.Contains(err.Error(), "superstep 2 changed the iteration's plan") {
			t.Errorf("%s: err = %v, want superstep 2 to fail for changing the plan", name, err)
		}
	}
}

// TestFailedSuperstepReleasesTheSolutionSet: however a superstep fails — a
// user function panicking in a task or in the step function, an operator
// returning an error — the job reports it instead of hanging or crashing,
// and the solution set's managed segments all go back to the pool.
func TestFailedSuperstepReleasesTheSolutionSet(t *testing.T) {
	for name, c := range map[string]struct {
		step func(ws *DataSet[kv]) *DataSet[kv]
		want string
	}{
		"panic in a map": {func(ws *DataSet[kv]) *DataSet[kv] {
			return Map(ws, func(kv) kv { panic("boom in map") })
		}, "boom in map"},
		"panic in a reduce": {func(ws *DataSet[kv]) *DataSet[kv] {
			few := Map(ws, func(p kv) kv { return pair(p.Key%7, p.Value) })
			return Reduce(GroupBy(few, keyOf), func(kv, kv) kv { panic("boom in reduce") })
		}, "boom in reduce"},
		"panic in a join key": {func(ws *DataSet[kv]) *DataSet[kv] {
			joined := Join(ws, FromSlice(ws.env, []kv{pair(1, 1)}, 1), keyOf, func(kv) int64 { panic("boom in key") }, 2)
			return Map(joined, func(j joinedKV) kv { return j.Value.Left })
		}, "boom in key"},
		"panic in the step function": {func(ws *DataSet[kv]) *DataSet[kv] {
			panic("boom in step")
		}, "boom in step"},
		"an exchange's error": {func(ws *DataSet[kv]) *DataSet[kv] {
			return PartitionCustom(ws, core.Partitioner[int64](badRoute{}), keyOf)
		}, "routed to partition 9"},
	} {
		e := testEnv(t, nil)
		var initial []kv
		for i := int64(0); i < 3*keysPerSegment; i++ {
			initial = append(initial, pair(i, i))
		}
		sol := FromSlice(e, initial, 1)
		held := -1
		superstep := 0
		final := IterateDelta(sol, sol, 5, func(ws *DataSet[kv], _ func(int64) (int64, bool)) (*DataSet[kv], *DataSet[kv]) {
			if superstep++; superstep == 1 {
				return ws, ws
			}
			held = 0
			for node := 0; node < e.rt.Spec().Nodes; node++ {
				held += e.Managed(node).TotalSegments() - e.Managed(node).Free()
			}
			next := c.step(ws)
			return next, next
		})
		done := make(chan error, 1)
		go func() {
			// A reduce behind the iteration: its exchange must still close.
			_, err := Count(Reduce(GroupBy(final, keyOf), func(a, _ kv) kv { return a }))
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: err = %v, want it to report %q", name, err, c.want)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: the job did not end after its superstep failed", name)
		}
		if held <= 0 {
			t.Errorf("%s: the solution set held %d segments in superstep 2; the test needs it to hold some", name, held)
		}
		for node := 0; node < e.rt.Spec().Nodes; node++ {
			if free, total := e.Managed(node).Free(), e.Managed(node).TotalSegments(); free != total {
				t.Errorf("%s: node %d has %d of %d segments free after the failed job", name, node, free, total)
			}
		}
	}
}

// FuzzJoin drives random int64-keyed records on both sides through a join
// inside a bulk iteration of one to three supersteps — the static input on
// either side, or both inputs dynamic — over random partition counts, and
// compares every superstep's output with nested loops as sorted multisets.
func FuzzJoin(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 2, 6, 1, 10, 1, 11, 2, 20, 3, 30, 1, 100, 2, 200, 2, 201, 4, 40})
	f.Add([]byte{1, 0, 2, 0, 1, 2, 5, 5, 5, 6, 5, 7, 5, 8})
	f.Add([]byte{2, 1, 0, 1, 0, 0, 7, 1, 6, 2, 7, 3})
	f.Add([]byte{0, 2, 2, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		mode, q, parDyn, parStatic, n := int(data[0]%3), 1+int(data[1]%4), 1+int(data[2]%3), 1+int(data[3]%3), 1+int(data[4]%3)
		recs := data[6:]
		if len(recs) > 256 {
			recs = recs[:256]
		}
		split := 2 * (int(data[5]) % (len(recs)/2 + 1))
		pairs := func(b []byte) []kv {
			var out []kv
			for i := 0; i+1 < len(b); i += 2 {
				out = append(out, pair(int64(b[i]%8), int64(b[i+1])))
			}
			return out
		}
		dyn, static := pairs(recs[:split]), pairs(recs[split:])
		got, err := iteratedJoins(testEnv(t, nil), dyn, static, mode, parDyn, parStatic, q, n)
		if err != nil {
			t.Fatal(err)
		}
		if want := refJoins(dyn, static, n); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("mode %d, q %d, parallelism %d/%d, %d supersteps: joined\n%v\nwant\n%v",
				mode, q, parDyn, parStatic, n, got, want)
		}
	})
}
