package workloads

import (
	"math"
	"path"
	"testing"

	"repro/internal/datagen"
)

// TestKMeansMapReduceMatchesSpark requires K-Means on a mapreduce session —
// a chain of jobs — to converge to the same clustering cost as Spark's
// cached loop, and checks the defining cost of that chain: the input is
// staged on the DFS once and every round's map tasks read all of it again,
// the repeated I/O that Spark's caching and Flink's native iteration avoid.
func TestKMeansMapReduceMatchesSpark(t *testing.T) {
	points, _ := datagen.KMeansPoints(9, 3000, 3, 2.0)
	const iters = 5

	mr := paritySessionConf(t, "mapreduce", nil)
	mrCenters, err := KMeans(mr, points, 3, iters)
	if err != nil {
		t.Fatal(err)
	}
	sparkCenters, err := KMeans(paritySessionConf(t, "spark", nil), points, 3, iters)
	if err != nil {
		t.Fatal(err)
	}
	mrCost, sparkCost := KMeansCost(points, mrCenters), KMeansCost(points, sparkCenters)
	if math.Abs(mrCost-sparkCost) > 1e-6*(1+sparkCost) {
		t.Errorf("kmeans cost: mapreduce %.6f vs spark %.6f", mrCost, sparkCost)
	}

	var staged int64
	for _, name := range mr.FS().List() {
		if ok, _ := path.Match("dataflow/iter-*/input", name); ok {
			f, err := mr.FS().Open(name)
			if err != nil {
				t.Fatal(err)
			}
			staged += f.Size()
		}
	}
	if staged == 0 {
		t.Fatal("no staged dataflow/iter-*/input file")
	}
	if reads := mr.Metrics().DiskBytesRead.Load(); reads < iters*staged {
		t.Errorf("disk reads %d < %d rounds × %d staged input bytes: the input was read once?",
			reads, iters, staged)
	}
}
