// Package stats provides the small statistical toolkit the experiment
// harness needs: summaries over repeated trials (the paper plots mean and
// standard deviation over 5 runs), step-function time series for resource
// usage, and ASCII renderings of the paper's figures.
package stats

import "math"

// Summary describes a sample of repeated measurements.
type Summary struct {
	N    int
	Mean float64
	Std  float64 // sample standard deviation (n-1)
	Min  float64
	Max  float64
}

// Summarize computes a Summary. An empty input yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// Mean returns the arithmetic mean, 0 for empty input.
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// CoefficientOfVariation returns std/mean, the paper's notion of run
// variance (high for Flink Tera Sort).
func CoefficientOfVariation(xs []float64) float64 {
	s := Summarize(xs)
	if s.Mean == 0 {
		return 0
	}
	return s.Std / s.Mean
}
