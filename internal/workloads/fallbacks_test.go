package workloads

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
)

// TestNoBuiltInWorkloadFallsBackToGob runs every built-in workload on every
// engine and requires that no codec resolution landed on the per-record
// encoding/gob fallback. A record type that does is paying a serializer
// cost none of the paper's mechanisms explains, which is how flink once
// ran TeraSort nine times slower than spark; the counter is what keeps
// that from coming back unnoticed.
func TestNoBuiltInWorkloadFallsBackToGob(t *testing.T) {
	text := datagen.Text(21, 8*1024, 10)
	logs := datagen.GrepText(5, 200, "NEEDLE", 0.1)
	tera := datagen.TeraGen(13, 200)
	points, _ := datagen.KMeansPoints(17, 200, 3, 2.0)
	edges := datagen.RMAT(29, datagen.GraphSpec{Name: "fallbacks", Vertices: 32, Edges: 100})
	sales := genSales(200)
	wantRevenue := regionRevenueSerial(sales)

	for _, engine := range dataflow.Names() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			s := paritySession(t, engine)
			s.FS().WriteFile("wiki", text)
			s.FS().WriteFile("logs", logs)
			s.FS().WriteFile("tera-in", tera)
			check := func(workload string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", workload, err)
				}
				if n := s.Metrics().CodecFallbacks.Load(); n != 0 {
					t.Fatalf("%s on %s: %d codec resolutions fell back to encoding/gob", workload, engine, n)
				}
			}
			check("WordCount", WordCount(s, "wiki", "wc-out"))
			_, err := Grep(s, "logs", "NEEDLE")
			check("Grep", err)
			check("TeraSort", TeraSort(s, "tera-in", "tera-out", TeraPartitioner(tera, 4)))
			_, err = KMeans(s, points, 3, 3)
			check("K-Means", err)
			_, _, err = PageRank(s, edges, 3)
			check("PageRank", err)
			_, _, err = ConnectedComponents(s, edges, 20)
			check("ConnectedComponents", err)
			_, _, err = SSSP(s, edges, 0, 20)
			check("SSSP", err)
			revenue, err := regionRevenue(s, sales, 4)
			check("revenue by region", err)
			if !reflect.DeepEqual(revenue, wantRevenue) {
				t.Errorf("revenue by region = %v, want %v", revenue, wantRevenue)
			}

			// The counter counts: a pointer has no structural encoding.
			one := int64(1)
			pairs := dataflow.MapToPair(dataflow.FromSlice(s, sales, 2), func(v sale) core.Pair[string, *int64] {
				return core.KV(v.Region, &one)
			})
			if _, err := dataflow.CollectAsMap(dataflow.ReduceByKey(pairs, func(a, _ *int64) *int64 { return a })); err != nil {
				t.Fatal(err)
			}
			if s.Metrics().CodecFallbacks.Load() == 0 {
				t.Errorf("%s shuffled Pair[string,*int64] without counting a fallback", engine)
			}
		})
	}
}
