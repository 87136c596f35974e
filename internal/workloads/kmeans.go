package workloads

import (
	"repro/internal/datagen"
)

// K-Means is defined once in unified.go as a dataflow broadcast iteration;
// the helpers below serve it and the tests that score its result.

func nearest(p datagen.Point, centers []datagen.Point) int {
	best, bestD := 0, -1.0
	for i, c := range centers {
		d := dist2(p, c)
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func dist2(a, b datagen.Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

func addKSum(a, b KSum) KSum { return KSum{X: a.X + b.X, Y: a.Y + b.Y, N: a.N + b.N} }

// KMeansCost is the within-cluster sum of squared distances, the quantity
// K-Means minimizes; tests assert every engine reaches the same cost.
func KMeansCost(points []datagen.Point, centers []datagen.Point) float64 {
	total := 0.0
	for _, p := range points {
		total += dist2(p, centers[nearest(p, centers)])
	}
	return total
}
