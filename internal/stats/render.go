package stats

import (
	"fmt"
	"strings"
)

var sparkRunes = []rune(" ▁▂▃▄▅▆▇█")

// Sparkline renders values as a one-line unicode bar chart scaled to the
// sample maximum (or to hi when hi > 0).
func Sparkline(values []float64, hi float64) string {
	if len(values) == 0 {
		return ""
	}
	if hi <= 0 {
		for _, v := range values {
			if v > hi {
				hi = v
			}
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > 0 {
			idx = int(v / hi * float64(len(sparkRunes)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// UsageChart renders a labelled resource-usage series over [0, end] seconds
// in the style of the paper's figures: a fixed-width sparkline with axis
// annotations, e.g.
//
//	CPU %    ▁▃▆██▇▅▂  max=97.8 avg=61.2 (0..543s)
func UsageChart(label string, s *StepSeries, end float64, width int, hi float64) string {
	vals := s.Resample(0, end, width)
	return fmt.Sprintf("%-14s %s  max=%.1f avg=%.1f (0..%.0fs)",
		label, Sparkline(vals, hi), s.Max(), s.Avg(0, end), end)
}
