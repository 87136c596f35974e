package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStepSeriesBasics(t *testing.T) {
	var s StepSeries
	s.Add(0, 1)
	s.Add(10, 3)
	s.Add(20, 0)
	if got := s.At(5); got != 1 {
		t.Errorf("At(5) = %v, want 1", got)
	}
	if got := s.At(10); got != 3 {
		t.Errorf("At(10) = %v, want 3", got)
	}
	if got := s.At(15); got != 3 {
		t.Errorf("At(15) = %v, want 3", got)
	}
	if got := s.At(25); got != 0 {
		t.Errorf("At(25) = %v, want 0", got)
	}
	if got := s.At(-1); got != 0 {
		t.Errorf("At(-1) = %v, want 0", got)
	}
}

func TestStepSeriesOverwriteSameTime(t *testing.T) {
	var s StepSeries
	s.Add(5, 1)
	s.Add(5, 2)
	if s.Len() != 1 || s.At(5) != 2 {
		t.Errorf("same-time add should overwrite; len=%d At(5)=%v", s.Len(), s.At(5))
	}
}

func TestStepSeriesCollapsesEqualValues(t *testing.T) {
	var s StepSeries
	s.Add(0, 4)
	s.Add(3, 4)
	if s.Len() != 1 {
		t.Errorf("equal-value breakpoint not collapsed: len=%d", s.Len())
	}
}

func TestStepSeriesPanicsOnTimeTravel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("decreasing time did not panic")
		}
	}()
	var s StepSeries
	s.Add(10, 1)
	s.Add(5, 2)
}

func TestStepSeriesIntegralAndAvg(t *testing.T) {
	var s StepSeries
	s.Add(0, 2)
	s.Add(10, 4)
	s.Add(20, 0)
	// integral over [0,20] = 2*10 + 4*10 = 60
	if got := s.Integral(0, 20); got != 60 {
		t.Errorf("Integral = %v, want 60", got)
	}
	if got := s.Avg(0, 20); got != 3 {
		t.Errorf("Avg = %v, want 3", got)
	}
	// partial window [5,15] = 2*5 + 4*5 = 30
	if got := s.Integral(5, 15); got != 30 {
		t.Errorf("partial Integral = %v, want 30", got)
	}
}

func TestStepSeriesResample(t *testing.T) {
	var s StepSeries
	s.Add(0, 1)
	s.Add(5, 3)
	s.Add(10, 0)
	vals := s.Resample(0, 10, 2)
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 3 {
		t.Errorf("Resample = %v, want [1 3]", vals)
	}
}

func TestStepSeriesIntegralAdditiveProperty(t *testing.T) {
	var s StepSeries
	s.Add(0, 1.5)
	s.Add(7, 2.25)
	s.Add(13, 0.5)
	s.Add(40, 0)
	f := func(a, b, c uint8) bool {
		t0, t1, t2 := float64(a%50), float64(b%50), float64(c%50)
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		whole := s.Integral(t0, t2)
		split := s.Integral(t0, t1) + s.Integral(t1, t2)
		return math.Abs(whole-split) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStepSeriesScale(t *testing.T) {
	var s StepSeries
	s.Add(0, 0.5)
	pct := s.Scale(100)
	if pct.At(0) != 50 {
		t.Errorf("Scale: got %v, want 50", pct.At(0))
	}
	if s.At(0) != 0.5 {
		t.Error("Scale mutated the receiver")
	}
}

func TestSparklineAndCharts(t *testing.T) {
	line := Sparkline([]float64{0, 1, 2, 3, 4}, 0)
	if line == "" || len([]rune(line)) != 5 {
		t.Errorf("Sparkline length wrong: %q", line)
	}
	if Sparkline(nil, 0) != "" {
		t.Error("empty sparkline should be empty string")
	}
	var s StepSeries
	s.Add(0, 50)
	s.Add(100, 0)
	chart := UsageChart("CPU %", &s, 100, 20, 100)
	if chart == "" {
		t.Error("UsageChart returned empty")
	}
}
