package streaming

import (
	"cmp"
	"sort"
	"time"

	"repro/internal/dataflow"
	"repro/internal/metrics"
)

// Cell is the partial aggregate of one (key, window): the user accumulator
// plus the ingest stamps of the records folded in, which become latency
// samples at emission. Fields are exported because micro-batch cells ride
// the engines' shuffle, whose codec is derived from the exported fields.
type Cell[A any] struct {
	Agg     A
	Ingests []int64
	Count   int64
}

// WindowOut is one emitted window aggregate.
type WindowOut[K cmp.Ordered, A any] struct {
	Key    K
	Window dataflow.Window
	Agg    A
	// Count is the number of records aggregated into the window.
	Count int64
}

// Stats summarizes one streaming run.
type Stats struct {
	// Records is the number of non-late records aggregated.
	Records int64
	// Late is the number of records dropped as late.
	Late int64
	// Batches is the number of micro-batch rounds (0 for per-event).
	Batches int64
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
}

// Result is the output of one lowering: every emitted window, in
// canonical form (duplicate firings merged, sorted by window start then
// key) so results compare across lowerings with slices.Equal. Latency
// percentiles accumulate on the session's metrics
// (Metrics().Latency), one sample per record, observed at emission.
type Result[K cmp.Ordered, A any] struct {
	Windows []WindowOut[K, A]
	Stats   Stats
}

// SortWindows orders window outputs by (window start, key) — emission
// order differs across lowerings, so comparisons normalize with this.
func SortWindows[K cmp.Ordered, A any](ws []WindowOut[K, A]) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Window.Start != ws[j].Window.Start {
			return ws[i].Window.Start < ws[j].Window.Start
		}
		return ws[i].Key < ws[j].Key
	})
}

// canonicalize merges duplicate (key, window) outputs and sorts. A window
// can fire more than once when idle detection lets the global watermark
// overtake a slow-but-not-silent partition whose records then resurrect
// it; merging the firings makes Result.Windows a function of the input
// records alone — the cross-lowering parity invariant.
func canonicalize[K cmp.Ordered, A any](ws []WindowOut[K, A], merge func(A, A) A) []WindowOut[K, A] {
	SortWindows(ws)
	out := ws[:0]
	for _, w := range ws {
		if n := len(out); n > 0 && out[n-1].Window == w.Window && out[n-1].Key == w.Key {
			out[n-1].Agg = merge(out[n-1].Agg, w.Agg)
			out[n-1].Count += w.Count
			continue
		}
		out = append(out, w)
	}
	return out
}

// windowState is the keyed window accumulator both lowerings maintain:
// key → window start → cell.
type windowState[K cmp.Ordered, A any] map[K]map[int64]Cell[A]

// add folds one record's pre-aggregated cell into the state.
func (st windowState[K, A]) add(k K, winStart int64, c Cell[A], merge func(A, A) A) {
	wins, ok := st[k]
	if !ok {
		wins = map[int64]Cell[A]{}
		st[k] = wins
	}
	cur, ok := wins[winStart]
	if !ok {
		wins[winStart] = c
		return
	}
	cur.Agg = merge(cur.Agg, c.Agg)
	cur.Ingests = append(cur.Ingests, c.Ingests...)
	cur.Count += c.Count
	wins[winStart] = cur
}

// emitReady removes and returns every window closed under watermark wm
// (End ≤ wm), observing one ingest→emit latency sample per record. Pass
// wm = math.MaxInt64 for the end-of-stream flush. Outputs are sorted for
// determinism (state is a map).
func (st windowState[K, A]) emitReady(wm int64, sizeMs int64, lat *metrics.LatencySketch, nowNanos func() int64) []WindowOut[K, A] {
	var out []WindowOut[K, A]
	for k, wins := range st {
		for start, c := range wins {
			if start+sizeMs > wm {
				continue
			}
			if lat != nil {
				now := nowNanos()
				for _, ing := range c.Ingests {
					lat.ObserveMillis(float64(now-ing) / 1e6)
				}
			}
			out = append(out, WindowOut[K, A]{
				Key:    k,
				Window: dataflow.Window{Start: start, End: start + sizeMs},
				Agg:    c.Agg,
				Count:  c.Count,
			})
			delete(wins, start)
		}
		if len(wins) == 0 {
			delete(st, k)
		}
	}
	SortWindows(out)
	return out
}
