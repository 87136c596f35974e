package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("Summarize mean = %v (n=%d), want 5 (n=8)", s.Mean, s.N)
	}
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("std = %v, want %v", s.Std, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", s.Min, s.Max)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Error("empty summary not zero")
	}
	if s := Summarize([]float64{3}); s.Std != 0 || s.Mean != 3 {
		t.Error("single-element summary wrong")
	}
}

func TestSummaryBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip degenerate inputs
			}
		}
		s := Summarize(xs)
		if s.N == 0 {
			return len(xs) == 0
		}
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.Std >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	cv := CoefficientOfVariation([]float64{100, 100, 100})
	if cv != 0 {
		t.Errorf("constant series cv = %v, want 0", cv)
	}
	high := CoefficientOfVariation([]float64{50, 150})
	low := CoefficientOfVariation([]float64{99, 101})
	if high <= low {
		t.Error("wider spread must have larger coefficient of variation")
	}
}
