package workloads

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/datagen"
)

// TestDriverHandlesOnlyInputsBroadcastsAndResults is the invariant that
// makes a staged-vs-pipelined comparison honest: every engine's driver is a
// scheduler. The records its own goroutine touches
// (metrics.JobMetrics.DriverRecords) are at most the FromSlice inputs it
// hands out, the state it broadcasts each round and the results it collects,
// plus a little per partition — never the data once per round. The
// iterative workloads are where a lowering slips: mapreduce's used to
// collect the edges to the driver and decode the whole edge or point file
// and the state file there every round: counted at those sites, it handled
// 7.8×, 14× and 6.7× this bound on PageRank, ConnectedComponents and KMeans
// at these sizes. The batch workloads read their input from the DFS inside
// the tasks, so a file input counts nothing: the driver may handle only what
// it collects.
func TestDriverHandlesOnlyInputsBroadcastsAndResults(t *testing.T) {
	const iters, k, slack = 5, 3, 64
	text := datagen.Text(35, 64*1024, 10)
	tera := datagen.TeraGen(37, 2000)
	edges := datagen.RMAT(31, datagen.GraphSpec{Name: "driver", Vertices: 200, Edges: 1500})
	sources := map[int64]bool{}
	for _, e := range edges {
		sources[e.Src] = true
	}
	points, _ := datagen.KMeansPoints(33, 2000, k, 2.0)
	cases := []struct {
		name string
		// run returns the size of the result it collected and what the
		// bound allows besides it: the FromSlice input, the broadcasts and
		// the per-round results.
		run func(s *dataflow.Session) (result, allowed int, err error)
	}{
		{"WordCount", func(s *dataflow.Session) (int, int, error) {
			s.FS().WriteFile("text", text)
			return 0, 0, WordCount(s, "text", "counts") // saved by the tasks: nothing collected
		}},
		{"Grep", func(s *dataflow.Session) (int, int, error) {
			s.FS().WriteFile("text", text)
			_, err := Grep(s, "text", "the")
			return 1, 0, err // the count
		}},
		{"TeraSort", func(s *dataflow.Session) (int, int, error) {
			s.FS().WriteFile("tera", tera)
			return 0, 0, TeraSort(s, "tera", "sorted", TeraPartitioner(tera, 4))
		}},
		{"PageRank", func(s *dataflow.Session) (int, int, error) {
			ranks, _, err := PageRank(s, edges, iters)
			return len(ranks), len(edges) + len(sources), err // the out-degree map is collected too
		}},
		{"ConnectedComponents", func(s *dataflow.Session) (int, int, error) {
			labels, _, err := ConnectedComponents(s, edges, 50)
			return len(labels), len(edges), err
		}},
		{"KMeans", func(s *dataflow.Session) (int, int, error) {
			centers, err := KMeans(s, points, k, iters)
			return len(centers), len(points) + 2*iters*k, err // each round's centers out, its sums back
		}},
	}
	for _, c := range cases {
		for _, engine := range dataflow.Names() {
			s := paritySession(t, engine)
			result, allowed, err := c.run(s)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.name, engine, err)
			}
			got, bound := s.Metrics().DriverRecords.Load(), int64(result+allowed+slack)
			t.Logf("%s on %s: the driver handled %d records, bound %d", c.name, engine, got, bound)
			if got > bound {
				t.Errorf("%s on %s: the driver handled %d records, more than its inputs, broadcasts and results allow (%d)",
					c.name, engine, got, bound)
			}
		}
	}
}
