package workloads

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
)

// sale is a user record with a string field: the shape of record a job
// most often shuffles from memory, which must resolve to a derived codec
// like the built-in workloads' records do.
type sale struct {
	Region string
	Cents  int64
}

// genSales builds n deterministic sales spread over three regions.
func genSales(n int) []sale {
	regions := []string{"us", "eu", "apac"}
	out := make([]sale, n)
	for i := range out {
		out[i] = sale{Region: regions[(i*7/3)%len(regions)], Cents: int64(i*37%1000) + 1}
	}
	return out
}

// regionRevenue sums sales by region: FromSlice → mapToPair(region, cents)
// → reduceByKey → collect, a two-stage shuffle of string-keyed records on
// every engine.
func regionRevenue(s *dataflow.Session, sales []sale, parallelism int) (map[string]int64, error) {
	byRegion := dataflow.MapToPair(dataflow.FromSlice(s, sales, parallelism), func(v sale) core.Pair[string, int64] {
		return core.KV(v.Region, v.Cents)
	})
	return dataflow.CollectAsMap(dataflow.ReduceByKey(byRegion, func(a, b int64) int64 { return a + b }))
}

// regionRevenueSerial is the plain-loop reference regionRevenue must match.
func regionRevenueSerial(sales []sale) map[string]int64 {
	out := map[string]int64{}
	for _, v := range sales {
		out[v.Region] += v.Cents
	}
	return out
}

// TestRegionRevenueParity runs the region-revenue job on every engine and
// requires each to match the serial reference — the same one-definition,
// three-lowerings contract as the main parity suite.
func TestRegionRevenueParity(t *testing.T) {
	sales := genSales(4000)
	want := regionRevenueSerial(sales)
	for _, engine := range dataflow.Names() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			got, err := regionRevenue(paritySession(t, engine), sales, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("region revenue = %v, want %v", got, want)
			}
		})
	}
}
