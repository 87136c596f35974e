package metrics

import (
	"testing"
	"time"
)

func TestLatencySketchQuantiles(t *testing.T) {
	var l LatencySketch
	if got := l.Quantile(0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	// 1..100 ms, observed out of order.
	for i := 100; i >= 1; i-- {
		l.ObserveMillis(float64(i))
	}
	if got := l.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if got := l.Quantile(0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := l.Quantile(0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := l.Quantile(1.0); got != 100 {
		t.Errorf("max = %v, want 100", got)
	}
	if got := l.Quantile(0); got != 1 {
		t.Errorf("min = %v, want 1", got)
	}
	if got := l.Mean(); got != 50.5 {
		t.Errorf("mean = %v, want 50.5", got)
	}

	var other LatencySketch
	other.Observe(200 * time.Millisecond)
	l.Merge(&other)
	if got := l.Quantile(1.0); got != 200 {
		t.Errorf("max after merge = %v, want 200", got)
	}
	snap := l.Snapshot()
	if snap.Count != 101 || snap.Max != 200 {
		t.Errorf("snapshot = %+v, want Count 101 Max 200", snap)
	}
	l.Reset()
	if l.Count() != 0 {
		t.Error("Reset did not clear samples")
	}
}
