package gellylike

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/engine/flink"
)

func testEnv(t *testing.T) *flink.Env {
	t.Helper()
	spec := cluster.Spec{Nodes: 2, CoresPerNode: 8, MemPerNode: core.GB, DiskSeqMiBps: 100, NetMiBps: 100}
	rt, err := cluster.NewRuntime(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	conf := core.NewConfig()
	conf.SetInt(core.FlinkDefaultParallelism, 4)
	conf.SetBytes(core.FlinkTaskManagerMemory, 128*core.MB)
	conf.SetInt(core.FlinkNetworkBuffers, 8192)
	return flink.NewEnv(conf, rt, dfs.New(2, 64*core.KB, 1))
}

func loadGraph(t *testing.T, e *flink.Env, edges []datagen.Edge) *Graph[int64] {
	t.Helper()
	ds := flink.FromSlice(e, edges, 4)
	return FromEdges(e, ds, int64(0))
}

func collectMap(t *testing.T, ds *flink.DataSet[core.Pair[int64, int64]]) map[int64]int64 {
	t.Helper()
	pairs, err := flink.Collect(ds)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[int64]int64, len(pairs))
	for _, p := range pairs {
		m[p.Key] = p.Value
	}
	return m
}

func TestGraphConstruction(t *testing.T) {
	e := testEnv(t)
	g := loadGraph(t, e, datagen.ChainGraph(6))
	nv, err := g.NumVertices()
	if err != nil {
		t.Fatal(err)
	}
	if nv != 6 {
		t.Errorf("vertices = %d, want 6", nv)
	}
}

func TestOutDegrees(t *testing.T) {
	e := testEnv(t)
	g := loadGraph(t, e, []datagen.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}})
	pairs, err := flink.Collect(g.OutDegrees())
	if err != nil {
		t.Fatal(err)
	}
	m := map[int64]int64{}
	for _, p := range pairs {
		m[p.Key] = p.Value
	}
	if m[1] != 2 || m[2] != 1 {
		t.Errorf("out degrees = %v", m)
	}
}

func TestConnectedComponentsDeltaChain(t *testing.T) {
	e := testEnv(t)
	g := loadGraph(t, e, datagen.ChainGraph(8))
	labels, supersteps, err := ConnectedComponentsDelta(g, 20)
	if err != nil {
		t.Fatal(err)
	}
	m := collectMap(t, labels)
	if len(m) != 8 {
		t.Fatalf("labelled %d vertices, want 8", len(m))
	}
	for id, l := range m {
		if l != 0 {
			t.Errorf("label[%d] = %d, want 0", id, l)
		}
	}
	// Delta iteration stops when the workset drains: well before 20.
	if *supersteps >= 20 {
		t.Errorf("delta CC ran %d supersteps; workset should have drained earlier", *supersteps)
	}
}

func TestConnectedComponentsDeltaCommunities(t *testing.T) {
	e := testEnv(t)
	g := loadGraph(t, e, datagen.Communities(3, 4))
	labels, _, err := ConnectedComponentsDelta(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	m := collectMap(t, labels)
	for id, l := range m {
		if want := (id / 4) * 4; l != want {
			t.Errorf("label[%d] = %d, want %d", id, l, want)
		}
	}
}

func TestDeltaEqualsBulk(t *testing.T) {
	// The paper evaluates Flink CC with both delta and bulk iterations;
	// results must agree even though costs differ.
	e := testEnv(t)
	edges := datagen.RMAT(21, datagen.GraphSpec{Name: "t", Vertices: 64, Edges: 256})
	gd := loadGraph(t, e, edges)
	delta, _, err := ConnectedComponentsDelta(gd, 30)
	if err != nil {
		t.Fatal(err)
	}
	dm := collectMap(t, delta)

	gb := loadGraph(t, e, edges)
	bulk, err := ConnectedComponentsBulk(gb, 30)
	if err != nil {
		t.Fatal(err)
	}
	bm := collectMap(t, bulk)

	if len(dm) != len(bm) {
		t.Fatalf("vertex sets differ: %d vs %d", len(dm), len(bm))
	}
	for id, l := range dm {
		if bm[id] != l {
			t.Errorf("delta/bulk disagree at %d: %d vs %d", id, l, bm[id])
		}
	}
}

func TestPageRankCycle(t *testing.T) {
	e := testEnv(t)
	edges := []datagen.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}}
	g := loadGraph(t, e, edges)
	ranks, err := PageRank(g, 15)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := flink.Collect(ranks)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if math.Abs(p.Value-1.0) > 1e-6 {
			t.Errorf("rank[%d] = %v, want 1.0 on a symmetric cycle", p.Key, p.Value)
		}
	}
}

func TestPageRankSingleSchedulingRoundPerJob(t *testing.T) {
	// Gelly PageRank = count job + degrees/load jobs + ONE iteration job,
	// regardless of the superstep count — the cyclic dataflow the paper
	// contrasts with Spark's per-iteration scheduling.
	e := testEnv(t)
	g := loadGraph(t, e, datagen.ChainGraph(6))
	before := e.Metrics().SchedulingRounds.Load()
	if _, err := PageRank(g, 10); err != nil {
		t.Fatal(err)
	}
	rounds := e.Metrics().SchedulingRounds.Load() - before
	if rounds > 4 {
		t.Errorf("10 supersteps used %d scheduling rounds; native iterations schedule once", rounds)
	}
}

// TestIterationsJoinCachedEdges: PageRank (bulk) and both connected
// components variants join the iteration state with the edges, which are
// on the iteration's static path, so the engine shuffles and builds the
// edges on a run's first superstep only, with no change to this package. A
// later superstep writes the state and the messages: under half of what one
// shuffle of the edges writes. Bulk components does not combine its offers
// before the co-group that unions them with the labels, so its supersteps
// also shuffle one offer per symmetrized edge — as many bytes as two
// shuffles of the edges — whether or not the edges are cached. The graph is
// a 16-vertex chain of 100-fold edges, so the state and the messages stay
// small and every run lasts its full superstep count.
func TestIterationsJoinCachedEdges(t *testing.T) {
	var edges []datagen.Edge
	for v := int64(0); v < 15; v++ {
		for i := 0; i < 100; i++ {
			edges = append(edges, datagen.Edge{Src: v, Dst: v + 1})
		}
	}
	e := testEnv(t)
	bySrc := core.Partitioner[int64](core.NewHashPartitioner[int64](4))
	if _, err := flink.Count(flink.PartitionCustom(flink.FromSlice(e, edges, 4), bySrc,
		func(ed datagen.Edge) int64 { return ed.Src })); err != nil {
		t.Fatal(err)
	}
	edgeBytes := e.Metrics().ShuffleBytesWritten.Load()

	collect := func(ds *flink.DataSet[core.Pair[int64, int64]]) error {
		_, err := flink.Collect(ds)
		return err
	}
	for name, c := range map[string]struct {
		run    func(g *Graph[int64], n int) error
		offers int64 // bytes a superstep shuffles besides the state and the messages
	}{
		"PageRank": {func(g *Graph[int64], n int) error {
			ranks, err := PageRank(g, n)
			if err == nil {
				_, err = flink.Collect(ranks)
			}
			return err
		}, 0},
		"ConnectedComponentsBulk": {func(g *Graph[int64], n int) error {
			labels, err := ConnectedComponentsBulk(g, n)
			if err == nil {
				err = collect(labels)
			}
			return err
		}, 2 * edgeBytes},
		"ConnectedComponentsDelta": {func(g *Graph[int64], n int) error {
			labels, supersteps, err := ConnectedComponentsDelta(g, n)
			if err == nil {
				err = collect(labels)
			}
			if err == nil && *supersteps != int64(n) {
				err = fmt.Errorf("ran %d supersteps, want %d", *supersteps, n)
			}
			return err
		}, 0},
	} {
		written := map[int]int64{}
		for _, n := range []int{2, 5} {
			e := testEnv(t)
			if err := c.run(loadGraph(t, e, edges), n); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			written[n] = e.Metrics().ShuffleBytesWritten.Load()
		}
		if perStep := (written[5] - written[2]) / 3; perStep-c.offers >= edgeBytes/2 {
			t.Errorf("%s: a superstep writes %d shuffle bytes (%d besides offers), one shuffle of the edges %d: the edges are re-shuffled every superstep",
				name, perStep, perStep-c.offers, edgeBytes)
		}
	}
}

func TestCrossEngineConnectedComponentsAgree(t *testing.T) {
	// Both libraries must compute identical components on the same graph —
	// the cross-framework equivalence underpinning the paper's comparison.
	e := testEnv(t)
	edges := datagen.RMAT(33, datagen.GraphSpec{Name: "x", Vertices: 128, Edges: 512})
	g := loadGraph(t, e, edges)
	labels, _, err := ConnectedComponentsDelta(g, 40)
	if err != nil {
		t.Fatal(err)
	}
	flinkLabels := collectMap(t, labels)

	// Reference: plain union-find.
	parent := map[int64]int64{}
	var find func(x int64) int64
	find = func(x int64) int64 {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	seen := map[int64]bool{}
	for _, ed := range edges {
		for _, v := range []int64{ed.Src, ed.Dst} {
			if !seen[v] {
				seen[v] = true
				parent[v] = v
			}
		}
	}
	for _, ed := range edges {
		a, b := find(ed.Src), find(ed.Dst)
		if a != b {
			parent[a] = b
		}
	}
	// Min label per component.
	minOf := map[int64]int64{}
	for v := range seen {
		r := find(v)
		if m, ok := minOf[r]; !ok || v < m {
			minOf[r] = v
		}
	}
	for v := range seen {
		want := minOf[find(v)]
		if flinkLabels[v] != want {
			t.Errorf("label[%d] = %d, want %d (union-find reference)", v, flinkLabels[v], want)
		}
	}
}
