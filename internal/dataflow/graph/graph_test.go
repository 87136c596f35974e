package graph

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/engine/flink"
	"repro/internal/engine/spark"
	"repro/internal/metrics"
)

func session(t *testing.T, engine string) *dataflow.Session {
	t.Helper()
	spec := cluster.Spec{Nodes: 2, CoresPerNode: 8, MemPerNode: core.GB, DiskSeqMiBps: 100, NetMiBps: 100}
	rt, err := cluster.NewRuntime(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	conf := core.NewConfig()
	switch engine {
	case "spark":
		conf.SetInt(core.SparkDefaultParallelism, 4).SetInt(core.SparkEdgePartitions, 4)
	case "flink":
		// Joins pipeline both producer chains concurrently; parallelism 2
		// keeps the widest plan within the 8 slots per node.
		conf.SetInt(core.FlinkDefaultParallelism, 2).SetInt(core.FlinkNetworkBuffers, 8192)
	}
	s, err := dataflow.Open(engine, dataflow.WithConfig(conf), dataflow.WithRuntime(rt), dataflow.WithFS(dfs.New(spec.Nodes, 16*core.KB, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// forEachEngine runs body once per engine.
func forEachEngine(t *testing.T, body func(t *testing.T, s *dataflow.Session)) {
	t.Helper()
	engines := dataflow.Names()
	if len(engines) < 3 {
		t.Fatalf("expected 3 engines, got %v", engines)
	}
	for _, engine := range engines {
		engine := engine
		t.Run(engine, func(t *testing.T) { body(t, session(t, engine)) })
	}
}

func chainGraphOf(s *dataflow.Session, n int64) *Graph[int64] {
	return FromEdges[int64](dataflow.FromSlice(s, datagen.ChainGraph(n), 0))
}

func minLabelPregel(t *testing.T, g *Graph[int64], maxIter int) (map[int64]int64, int) {
	t.Helper()
	labels, supersteps, err := Pregel(g,
		func(id int64) int64 { return id },
		func(id int64, label, msg int64) (int64, bool) {
			if msg < label {
				return msg, true
			}
			return label, false
		},
		func(src int64, label, dst int64) (int64, bool) { return label, true },
		func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		},
		maxIter)
	if err != nil {
		t.Fatal(err)
	}
	return labels, supersteps
}

func TestGraphCounts(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s *dataflow.Session) {
		g := chainGraphOf(s, 6)
		nv, err := g.NumVertices()
		if err != nil {
			t.Fatal(err)
		}
		if nv != 6 {
			t.Errorf("vertices = %d, want 6", nv)
		}
		ne, err := g.NumEdges()
		if err != nil {
			t.Fatal(err)
		}
		if ne != 10 {
			t.Errorf("edges = %d, want 10", ne)
		}
	})
}

func TestOutAndInDegrees(t *testing.T) {
	edges := []datagen.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}}
	forEachEngine(t, func(t *testing.T, s *dataflow.Session) {
		g := FromEdges[int64](dataflow.FromSlice(s, edges, 0))
		out, err := g.OutDegrees()
		if err != nil {
			t.Fatal(err)
		}
		if out[1] != 2 || out[2] != 1 || out[3] != 0 {
			t.Errorf("out degrees = %v", out)
		}
		in, err := g.InDegrees()
		if err != nil {
			t.Fatal(err)
		}
		if in[3] != 2 || in[2] != 1 || in[1] != 0 {
			t.Errorf("in degrees = %v", in)
		}
	})
}

func TestPregelMinLabelChain(t *testing.T) {
	// Min-label propagation on an 8-chain: all labels converge to 0, early
	// (well under the 20-iteration budget), with the same superstep count
	// on every backend.
	counts := map[string]int{}
	forEachEngine(t, func(t *testing.T, s *dataflow.Session) {
		g := chainGraphOf(s, 8)
		labels, supersteps, err := func() (map[int64]int64, int, error) {
			l, n := minLabelPregel(t, g, 20)
			return l, n, nil
		}()
		if err != nil {
			t.Fatal(err)
		}
		if len(labels) != 8 {
			t.Fatalf("labelled %d vertices, want 8", len(labels))
		}
		for id, l := range labels {
			if l != 0 {
				t.Errorf("label[%d] = %d, want 0", id, l)
			}
		}
		if supersteps >= 20 {
			t.Errorf("no convergence detection: %d supersteps", supersteps)
		}
		if supersteps < 6 {
			t.Errorf("converged suspiciously fast: %d supersteps", supersteps)
		}
		counts[s.Name()] = supersteps
	})
	if len(counts) == 3 {
		if counts["spark"] != counts["flink"] || counts["spark"] != counts["mapreduce"] {
			t.Errorf("superstep counts diverge: %v", counts)
		}
	}
}

func TestPregelEmptyGraph(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s *dataflow.Session) {
		g := FromEdges[int64](dataflow.FromSlice(s, []datagen.Edge{}, 0))
		labels, supersteps := minLabelPregel(t, g, 5)
		if len(labels) != 0 {
			t.Errorf("empty graph produced %d vertices", len(labels))
		}
		if supersteps != 0 {
			t.Errorf("empty graph ran %d supersteps", supersteps)
		}
	})
}

func TestPregelSingleVertexSelfLoop(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s *dataflow.Session) {
		g := FromEdges[int64](dataflow.FromSlice(s, []datagen.Edge{{Src: 7, Dst: 7}}, 0))
		labels, _ := minLabelPregel(t, g, 5)
		if len(labels) != 1 || labels[7] != 7 {
			t.Errorf("self-loop graph labels = %v, want {7:7}", labels)
		}
	})
}

func TestAggregateMessagesRankContribs(t *testing.T) {
	// One PageRank-style contribution round: each vertex sends 1/outDeg
	// along its out-edges; results must agree with a direct computation on
	// every backend.
	edges := datagen.RMAT(7, datagen.GraphSpec{Name: "agg", Vertices: 32, Edges: 96})
	outDeg := map[int64]int64{}
	for _, e := range edges {
		outDeg[e.Src]++
	}
	want := map[int64]float64{}
	for _, e := range edges {
		want[e.Dst] += 1.0 / float64(outDeg[e.Src])
	}
	forEachEngine(t, func(t *testing.T, s *dataflow.Session) {
		g := FromEdges[int64](dataflow.FromSlice(s, edges, 0))
		degs, err := g.OutDegrees()
		if err != nil {
			t.Fatal(err)
		}
		got, err := AggregateMessages(g,
			func(id int64) int64 { return degs[id] },
			func(src int64, deg int64, dst int64) []Msg[float64] {
				if deg == 0 {
					return nil
				}
				return []Msg[float64]{{To: dst, Value: 1.0 / float64(deg)}}
			},
			func(a, b float64) float64 { return a + b })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("messaged %d vertices, want %d", len(got), len(want))
		}
		for id, w := range want {
			if math.Abs(got[id]-w) > 1e-9 {
				t.Errorf("contrib[%d] = %v, want %v", id, got[id], w)
			}
		}
	})
}

// TestSparkSuperstepShufflesOnlyMessages pins the spark lowering's physical
// plan. Building the graph shuffles twice: the edges by source, and the
// endpoint ids that become the vertices. Every superstep after that is one
// shuffle-map stage, the combined messages, because the cached edges and the
// vertex states share the graph's partitioner and are joined in place. The
// graph is dense (2 000 edges over 32 vertices) so that a superstep's
// combined messages are a small fraction of the edges, and a stage that
// re-shuffled the edges would stand out by its bytes.
func TestSparkSuperstepShufflesOnlyMessages(t *testing.T) {
	edges := datagen.RMAT(5, datagen.GraphSpec{Name: "pin", Vertices: 32, Edges: 2000})
	ctxOf := func(s *dataflow.Session) *spark.Context { return s.Handle().(*spark.Context) }

	// The bytes one shuffle of the edges writes, as source → destination
	// pairs over the graph's partitioner.
	s := session(t, "spark")
	pairs := make([]core.Pair[int64, int64], len(edges))
	for i, e := range edges {
		pairs[i] = core.KV(e.Src, e.Dst)
	}
	if _, err := spark.Count(spark.PartitionBy(spark.Parallelize(ctxOf(s), pairs, 4), core.NewHashPartitioner[int64](4))); err != nil {
		t.Fatal(err)
	}
	edgeBytes := ctxOf(s).Metrics().ShuffleBytesWritten.Load()

	// mapStageBytes runs maxIter supersteps of an always-sending Pregel and
	// returns the shuffle bytes each of its shuffle-map stages wrote.
	mapStageBytes := func(maxIter int) []int64 {
		s := session(t, "spark")
		var stages []int64
		var seen int64
		ctxOf(s).Metrics().SetStageObserver(func(ev metrics.StageEvent) {
			if strings.HasPrefix(ev.Name, "shuffle-") {
				stages = append(stages, ev.Snap.ShuffleBytesWritten-seen)
			}
			seen = ev.Snap.ShuffleBytesWritten
		})
		_, supersteps, err := Pregel(FromEdges[float64](dataflow.FromSlice(s, edges, 0)),
			func(int64) float64 { return 1 },
			func(_ int64, _, msg float64) (float64, bool) { return msg / 2, true },
			func(_ int64, v float64, _ int64) (float64, bool) { return v, true },
			func(a, b float64) float64 { return a + b },
			maxIter)
		if err != nil {
			t.Fatal(err)
		}
		if supersteps != maxIter {
			t.Fatalf("ran %d supersteps, want %d", supersteps, maxIter)
		}
		return stages
	}
	for _, supersteps := range []int{2, 5} {
		stages := mapStageBytes(supersteps)
		if len(stages) != supersteps+2 {
			t.Errorf("%d supersteps launched %d shuffle-map stages, want %d (edges, vertex ids, one per superstep)",
				supersteps, len(stages), supersteps+2)
		}
		edgeSized := 0
		for _, b := range stages {
			if b >= edgeBytes/2 {
				edgeSized++
			}
		}
		if edgeSized > 1 {
			t.Errorf("%d supersteps: %d map stages wrote at least half the edges' %d shuffle bytes (%v); the edges may be shuffled once per Pregel call",
				supersteps, edgeSized, edgeBytes, stages)
		}
	}
}

// TestFlinkSuperstepReadsEdgesOnce pins the flink lowering's physical plan on
// the same dense graph: the edges are the superstep join's static input, so
// the first superstep partitions them and builds their tables and every
// later one probes those in place. What a superstep shuffles is the workset
// and the combined messages, so three more supersteps write less than one
// shuffle of the edges; joining the edges afresh every superstep wrote three.
func TestFlinkSuperstepReadsEdgesOnce(t *testing.T) {
	edges := datagen.RMAT(5, datagen.GraphSpec{Name: "pin", Vertices: 32, Edges: 2000})
	envOf := func(s *dataflow.Session) *flink.Env { return s.Handle().(*flink.Env) }

	// The bytes one shuffle of the edges by source writes.
	s := session(t, "flink")
	bySrc := core.Partitioner[int64](core.NewHashPartitioner[int64](2))
	if _, err := flink.Count(flink.PartitionCustom(flink.FromSlice(envOf(s), edges, 2), bySrc,
		func(e datagen.Edge) int64 { return e.Src })); err != nil {
		t.Fatal(err)
	}
	edgeBytes := envOf(s).Metrics().ShuffleBytesWritten.Load()

	written := map[int]int64{}
	for _, maxIter := range []int{2, 5} {
		s := session(t, "flink")
		_, supersteps, err := Pregel(FromEdges[float64](dataflow.FromSlice(s, edges, 0)),
			func(int64) float64 { return 1 },
			func(_ int64, _, msg float64) (float64, bool) { return msg / 2, true },
			func(_ int64, v float64, _ int64) (float64, bool) { return v, true },
			func(a, b float64) float64 { return a + b },
			maxIter)
		if err != nil {
			t.Fatal(err)
		}
		if supersteps != maxIter {
			t.Fatalf("ran %d supersteps, want %d", supersteps, maxIter)
		}
		written[maxIter] = envOf(s).Metrics().ShuffleBytesWritten.Load()
	}
	t.Logf("one shuffle of the edges: %d bytes; 2 and 5 supersteps: %d and %d", edgeBytes, written[2], written[5])
	if extra := written[5] - written[2]; extra >= edgeBytes {
		t.Errorf("3 more supersteps wrote %d shuffle bytes (%d → %d), one shuffle of the edges is %d: the edges are re-shuffled every superstep",
			extra, written[2], written[5], edgeBytes)
	}
}

func TestPregelDanglingDestination(t *testing.T) {
	// Vertex 2 has no out-edges: it must still exist, receive messages and
	// apply its program; SSSP-style frontier growth covers the directed
	// case (vertex 0 unreachable keeps +Inf on the reversed edge).
	edges := []datagen.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}
	forEachEngine(t, func(t *testing.T, s *dataflow.Session) {
		g := FromEdges[float64](dataflow.FromSlice(s, edges, 0))
		dists, supersteps, err := Pregel(g,
			func(id int64) float64 {
				if id == 0 {
					return 0
				}
				return math.Inf(1)
			},
			func(id int64, d, msg float64) (float64, bool) {
				if msg < d {
					return msg, true
				}
				return d, false
			},
			func(src int64, d float64, dst int64) (float64, bool) {
				if math.IsInf(d, 1) {
					return 0, false
				}
				return d + 1, true
			},
			math.Min, 10)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint(map[int64]float64{0: 0, 1: 1, 2: 2})
		if got := fmt.Sprint(dists); got != want {
			t.Errorf("distances = %v, want %v", got, want)
		}
		if supersteps != 2 {
			t.Errorf("supersteps = %d, want 2", supersteps)
		}
	})
}

// TestMapReduceSuperstepRoundTripsThroughTheDFS pins the mapreduce
// lowering's physical plan on the dense graph: staging is one job, and so is
// every superstep. Between one superstep's reduce and the next one's map
// barrier the tasks read the staged edges and the state (the map-side join,
// plus the state once more in the apply wave), write the next state file,
// and shuffle only the combined messages — less than one edge file. The
// driver decodes nothing but the final states it returns.
func TestMapReduceSuperstepRoundTripsThroughTheDFS(t *testing.T) {
	edges := datagen.RMAT(5, datagen.GraphSpec{Name: "pin", Vertices: 32, Edges: 2000})
	for _, maxIter := range []int{2, 5} {
		s := session(t, "mapreduce")
		var events []metrics.StageEvent
		s.Metrics().SetStageObserver(func(ev metrics.StageEvent) { events = append(events, ev) })
		verts, supersteps, err := Pregel(FromEdges[float64](dataflow.FromSlice(s, edges, 0)),
			func(int64) float64 { return 1 },
			func(_ int64, _, msg float64) (float64, bool) { return msg / 2, true },
			func(_ int64, v float64, _ int64) (float64, bool) { return v, true },
			func(a, b float64) float64 { return a + b },
			maxIter)
		if err != nil {
			t.Fatal(err)
		}
		if supersteps != maxIter {
			t.Fatalf("ran %d supersteps, want %d", supersteps, maxIter)
		}
		var names []string
		for _, ev := range events {
			names = append(names, ev.Name)
		}
		if want := 2 * (1 + maxIter); len(events) != want {
			t.Fatalf("%d supersteps: %d stage events %v, want %d (staging and one job per superstep, two stages each)",
				maxIter, len(events), names, want)
		}
		var edgeBytes, stateBytes int64
		for _, name := range s.FS().List() {
			f, err := s.FS().Open(name)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case strings.Contains(name, "/edges/part-"):
				edgeBytes += f.Size()
			case strings.Contains(name, "/state/part-"):
				stateBytes += f.Size()
			}
		}
		t.Logf("%d supersteps: edge files %d B, state files %d B", maxIter, edgeBytes, stateBytes)
		// events: StageGraph-map, StageGraph-reduce, then Pregel#k-map and
		// Pregel#k-reduce per superstep. Window k runs from superstep k's
		// reduce barrier to superstep k+1's map barrier.
		for k := 1; k < maxIter; k++ {
			from, to := events[2*k+1], events[2*k+2]
			if to.Name != fmt.Sprintf("Pregel#%d-map", k+1) {
				t.Fatalf("stage event %d is %q, want Pregel#%d-map", 2*k+2, to.Name, k+1)
			}
			read := to.Snap.DiskBytesRead - from.Snap.DiskBytesRead
			shuffled := to.Snap.ShuffleBytesWritten - from.Snap.ShuffleBytesWritten
			written := to.Snap.DiskBytesWritten - from.Snap.DiskBytesWritten - shuffled
			if read < edgeBytes+stateBytes {
				t.Errorf("superstep %d read %d B from the DFS, want at least the edges' %d + the state's %d", k+1, read, edgeBytes, stateBytes)
			}
			if written < stateBytes {
				t.Errorf("superstep %d wrote %d B besides its shuffle, want a new state file (%d B)", k+1, written, stateBytes)
			}
			if shuffled >= edgeBytes {
				t.Errorf("superstep %d shuffled %d B, not less than the edge files' %d", k+1, shuffled, edgeBytes)
			}
		}
		if got := s.Metrics().DriverRecords.Load(); got != int64(len(edges)+len(verts)) {
			t.Errorf("the driver handled %d records, want the %d edges it handed out and the %d states it returned",
				got, len(edges), len(verts))
		}
	}
}

// TestPregelUserPanicsAreErrors: a panic in sendMsg or vprog fails Pregel
// with an error carrying the panic on every engine — no crash, no hang. On
// spark and mapreduce the error names the task. On mapreduce sendMsg runs in
// a superstep's map tasks and vprog in its apply tasks, and no failed job
// leaves intermediate files behind.
func TestPregelUserPanicsAreErrors(t *testing.T) {
	for _, where := range []string{"sendMsg", "vprog"} {
		t.Run(where, func(t *testing.T) {
			forEachEngine(t, func(t *testing.T, s *dataflow.Session) {
				_, _, err := Pregel(chainGraphOf(s, 8),
					func(id int64) int64 { return id },
					func(id int64, label, msg int64) (int64, bool) {
						if where == "vprog" {
							panic("vprog blew up")
						}
						return min(label, msg), msg < label
					},
					func(src int64, label, dst int64) (int64, bool) {
						if where == "sendMsg" {
							panic("sendMsg blew up")
						}
						return label, true
					},
					func(a, b int64) int64 { return min(a, b) },
					5)
				if err == nil || !strings.Contains(err.Error(), where+" blew up") {
					t.Fatalf("Pregel = %v, want an error carrying the panic", err)
				}
				if s.Name() != "flink" && !strings.Contains(err.Error(), "task ") {
					t.Errorf("Pregel = %v, want an error naming the task", err)
				}
				for _, name := range s.FS().List() {
					if strings.HasPrefix(name, "mr/") {
						t.Errorf("a failed job left %s on the DFS", name)
					}
				}
			})
		})
	}
}

// prVertex is the PageRank state of the tests below: rank and out-degree.
type prVertex struct {
	Rank   float64
	OutDeg int64
}

// pageRank runs PageRank's Pregel program over edges: the out-degree job,
// then iters supersteps of rank/outDegree along every out-edge and a damped
// sum per vertex.
func pageRank(t *testing.T, s *dataflow.Session, edges []datagen.Edge, iters int) (map[int64]float64, int) {
	t.Helper()
	g := FromEdges[prVertex](dataflow.FromSlice(s, edges, 0))
	degrees, err := g.OutDegrees()
	if err != nil {
		t.Fatal(err)
	}
	verts, supersteps, err := Pregel(g,
		func(id int64) prVertex { return prVertex{Rank: 1, OutDeg: degrees[id]} },
		func(_ int64, v prVertex, sum float64) (prVertex, bool) {
			return prVertex{Rank: 0.15 + 0.85*sum, OutDeg: v.OutDeg}, true
		},
		func(_ int64, v prVertex, _ int64) (float64, bool) {
			if v.OutDeg == 0 {
				return 0, false
			}
			return v.Rank / float64(v.OutDeg), true
		},
		func(a, b float64) float64 { return a + b },
		iters)
	if err != nil {
		t.Fatal(err)
	}
	ranks := make(map[int64]float64, len(verts))
	for id, v := range verts {
		ranks[id] = v.Rank
	}
	return ranks, supersteps
}

func TestPageRankOnSmallGraphs(t *testing.T) {
	for _, c := range []struct {
		name  string
		edges []datagen.Edge
		iters int
		check func(ranks map[int64]float64) string
	}{
		// Perfectly symmetric: every rank converges to 1.0.
		{"cycle", []datagen.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}}, 15,
			func(ranks map[int64]float64) string {
				for id, r := range ranks {
					if math.Abs(r-1) > 1e-6 {
						return fmt.Sprintf("rank[%d] = %v, want 1.0 on a symmetric cycle", id, r)
					}
				}
				return ""
			}},
		// A star into vertex 0 with back edges, so every vertex has an
		// in-edge: the hub outranks the leaves.
		{"hub", []datagen.Edge{{Src: 1, Dst: 0}, {Src: 2, Dst: 0}, {Src: 3, Dst: 0}, {Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}}, 20,
			func(ranks map[int64]float64) string {
				if !(ranks[0] > ranks[1] && ranks[0] > ranks[2] && ranks[0] > ranks[3]) {
					return fmt.Sprintf("hub should outrank leaves: %v", ranks)
				}
				return ""
			}},
		// A 1-cycle: the full rank mass cycles, so the rank stays 1.
		{"self-loop", []datagen.Edge{{Src: 3, Dst: 3}}, 20,
			func(ranks map[int64]float64) string {
				if len(ranks) != 1 || math.Abs(ranks[3]-1) > 1e-6 {
					return fmt.Sprintf("ranks = %v, want {3: 1.0}", ranks)
				}
				return ""
			}},
		// Vertex 2 has no out-edges: it exists, absorbs rank and scatters
		// none.
		{"dangling", []datagen.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, 10,
			func(ranks map[int64]float64) string {
				if len(ranks) != 3 || ranks[2] <= 0 {
					return fmt.Sprintf("ranks = %v, want three vertices and a positive rank for 2", ranks)
				}
				return ""
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			forEachEngine(t, func(t *testing.T, s *dataflow.Session) {
				ranks, _ := pageRank(t, s, c.edges, c.iters)
				if msg := c.check(ranks); msg != "" {
					t.Error(msg)
				}
			})
		})
	}
}

// TestConnectedComponentsCommunities: min-label propagation over the
// undirected view of three 4-cliques labels every vertex with its clique's
// smallest id.
func TestConnectedComponentsCommunities(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s *dataflow.Session) {
		g := FromEdges[int64](dataflow.FromSlice(s, datagen.Communities(3, 4), 0)).Undirected()
		labels, _ := minLabelPregel(t, g, 10)
		if len(labels) != 12 {
			t.Fatalf("labelled %d vertices, want 12", len(labels))
		}
		for id, l := range labels {
			if want := (id / 4) * 4; l != want {
				t.Errorf("label[%d] = %d, want %d", id, l, want)
			}
		}
	})
}

// TestIterationScheduling pins the three iteration models by what the
// scheduler does when the superstep budget doubles from 5 to 10 on a graph
// whose vertices always send: spark unrolls the loop, at least two
// scheduling rounds (the message stage and the job's result stage) per
// superstep; flink schedules its native iteration once, whatever the count;
// mapreduce chains one job per superstep.
func TestIterationScheduling(t *testing.T) {
	type run struct{ rounds, jobs int64 }
	checks := map[string]func(r5, r10 run) string{
		"spark": func(r5, r10 run) string {
			if r10.rounds-r5.rounds < 2*5 {
				return fmt.Sprintf("5 more supersteps added %d scheduling rounds, want at least 10", r10.rounds-r5.rounds)
			}
			return ""
		},
		"flink": func(r5, r10 run) string {
			if r10.rounds != r5.rounds {
				return fmt.Sprintf("5 and 10 supersteps used %d and %d scheduling rounds; a native iteration schedules once", r5.rounds, r10.rounds)
			}
			return ""
		},
		"mapreduce": func(r5, r10 run) string {
			if r10.jobs-r5.jobs != 5 {
				return fmt.Sprintf("5 more supersteps ran %d more jobs, want 5", r10.jobs-r5.jobs)
			}
			return ""
		},
	}
	forEachEngine(t, func(t *testing.T, s *dataflow.Session) {
		measure := func(maxIter int) run {
			s := session(t, s.Name())
			var jobs int64
			s.Metrics().SetStageObserver(func(ev metrics.StageEvent) {
				if s.Name() == "mapreduce" && strings.HasSuffix(ev.Name, "-map") {
					jobs++
				}
			})
			_, supersteps, err := Pregel(FromEdges[float64](dataflow.FromSlice(s, datagen.ChainGraph(6), 0)),
				func(int64) float64 { return 1 },
				func(_ int64, _, msg float64) (float64, bool) { return msg / 2, true },
				func(_ int64, v float64, _ int64) (float64, bool) { return v, true },
				func(a, b float64) float64 { return a + b },
				maxIter)
			if err != nil {
				t.Fatal(err)
			}
			if supersteps != maxIter {
				t.Fatalf("ran %d supersteps, want %d", supersteps, maxIter)
			}
			return run{rounds: s.Metrics().SchedulingRounds.Load(), jobs: jobs}
		}
		r5, r10 := measure(5), measure(10)
		t.Logf("5 supersteps: %+v, 10 supersteps: %+v", r5, r10)
		if msg := checks[s.Name()](r5, r10); msg != "" {
			t.Error(msg)
		}
	})
}

// TestPregelSurvivesLosingTheEdgesNode is the stage-resubmission path under
// spark's Pregel: the graph's edges are cached and hash-partitioned, half
// of their partitions on node 1, and node 1 is lost right after a
// superstep's map stage — its cached edges, out-edge lists and vertex
// states and its map outputs all vanish. The result stage's fetch fails,
// the scheduler resubmits, and every lost partition is recomputed from
// lineage through the narrow cogroups. The ranks must equal a fault-free
// run's exactly: recomputation replays the same folds in the same order.
func TestPregelSurvivesLosingTheEdgesNode(t *testing.T) {
	edges := datagen.RMAT(29, datagen.GraphSpec{Name: "failnode", Vertices: 64, Edges: 512})
	const supersteps = 5
	run := func(failAfterMapStage int) (map[int64]float64, *metrics.JobMetrics) {
		spec := cluster.Spec{Nodes: 2, CoresPerNode: 2, MemPerNode: core.GB, DiskSeqMiBps: 100, NetMiBps: 100}
		rt, err := cluster.NewRuntime(spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		conf := core.NewConfig().SetInt(core.SparkDefaultParallelism, 4).SetInt(core.SparkEdgePartitions, 4)
		s, err := dataflow.Open("spark", dataflow.WithConfig(conf), dataflow.WithRuntime(rt), dataflow.WithFS(dfs.New(2, 64*core.KB, 1)))
		if err != nil {
			t.Fatal(err)
		}
		ctx := s.Handle().(*spark.Context)
		// The observer runs on the driver goroutine at stage barriers.
		mapStages := 0
		ctx.Metrics().SetStageObserver(func(ev metrics.StageEvent) {
			if !strings.HasPrefix(ev.Name, "shuffle-") {
				return
			}
			if mapStages++; mapStages == failAfterMapStage {
				ctx.FailNode(1)
			}
		})
		ranks, n := pageRank(t, s, edges, supersteps)
		if n != supersteps {
			t.Fatalf("PageRank ran %d supersteps, want %d", n, supersteps)
		}
		return ranks, ctx.Metrics()
	}

	want, clean := run(0)
	// Map stages: the out-degree job's, the edges partitioned by source, the
	// vertex ids, then one per superstep's messages; the seventh is the
	// fourth superstep's.
	got, faulty := run(7)
	if faulty.Recomputations.Load() == 0 {
		t.Fatal("losing node 1 caused no stage resubmission: the failure was not injected mid-Pregel")
	}
	if faulty.CacheMisses.Load() <= clean.CacheMisses.Load() {
		t.Errorf("cache misses %d after the failure, %d without: no cached partition was lost",
			faulty.CacheMisses.Load(), clean.CacheMisses.Load())
	}
	if len(got) != len(want) {
		t.Fatalf("ranked %d vertices after the failure, %d without", len(got), len(want))
	}
	for id, r := range want {
		if got[id] != r {
			t.Errorf("rank[%d] = %v after the failure, %v without", id, got[id], r)
		}
	}
}
