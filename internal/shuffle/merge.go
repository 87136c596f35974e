package shuffle

// mergeFanIn is how many sorted segments one merge pass consumes — Hadoop's
// io.sort.factor scaled to laptop segments. Above it, ParallelMerge splits
// the work into subtasks.
const mergeFanIn = 8

// Subtasker schedules intra-task parallel work pinned to a node.
// *cluster.Runtime implements it; the reduce-side merge uses it so wide
// merges run as parallel subtasks instead of one sequential pass.
type Subtasker interface {
	Subtasks(node int, fns []func() error) error
}

// Merge k-way merges sorted segments into one sorted stream with a binary
// min-heap over the segment heads, stable across segments (equal records
// drain in segment order) — O(records · log segments). The heap is typed: no
// interface dispatch per comparison, no boxing per pop.
func Merge[R any](segs [][]R, less func(a, b R) bool) []R {
	segs = nonEmpty(segs)
	switch len(segs) {
	case 0:
		return nil
	case 1:
		return segs[0]
	}
	total := 0
	h := make([]mergeEntry, len(segs))
	for s, seg := range segs {
		total += len(seg)
		h[s].seg = s
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, segs, less)
	}
	out := make([]R, 0, total)
	for len(h) > 0 {
		e := &h[0]
		out = append(out, segs[e.seg][e.idx])
		e.idx++
		if e.idx == len(segs[e.seg]) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0, segs, less)
	}
	return out
}

// ParallelMerge merges many sorted segments through the runtime: segments
// are split into fan-in-sized groups merged by concurrent subtasks on the
// consuming task's node, then a final pass merges the group results. With a
// nil runtime or few segments it degrades to the sequential Merge.
func ParallelMerge[R any](rt Subtasker, node int, segs [][]R, less func(a, b R) bool) []R {
	segs = nonEmpty(segs)
	if rt == nil || len(segs) <= mergeFanIn {
		return Merge(segs, less)
	}
	groups := (len(segs) + mergeFanIn - 1) / mergeFanIn
	results := make([][]R, groups)
	fns := make([]func() error, groups)
	for g := 0; g < groups; g++ {
		g := g
		lo := g * mergeFanIn
		hi := lo + mergeFanIn
		if hi > len(segs) {
			hi = len(segs)
		}
		fns[g] = func() error {
			results[g] = Merge(segs[lo:hi], less)
			return nil
		}
	}
	if err := rt.Subtasks(node, fns); err != nil {
		// A rejected placement cannot happen for a node the task already
		// runs on; degrade to the sequential pass if it somehow does.
		return Merge(segs, less)
	}
	return Merge(results, less)
}

// Concat flattens segments in segment order (the merge of unordered runs).
func Concat[R any](segs [][]R) []R {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	out := make([]R, 0, total)
	for _, s := range segs {
		out = append(out, s...)
	}
	return out
}

func nonEmpty[R any](segs [][]R) [][]R {
	out := segs[:0:0]
	for _, s := range segs {
		if len(s) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// mergeEntry is one segment's cursor on the merge heap.
type mergeEntry struct {
	seg int
	idx int
}

// siftDown restores the heap below position i. One head goes before another
// when it is smaller, or — equal records drain in segment order, keeping the
// merge stable — when neither is and its segment comes first: one less call
// decides either way.
func siftDown[R any](h []mergeEntry, i int, segs [][]R, less func(a, b R) bool) {
	before := func(a, b mergeEntry) bool {
		ra, rb := segs[a.seg][a.idx], segs[b.seg][b.idx]
		if a.seg < b.seg {
			return !less(rb, ra)
		}
		return less(ra, rb)
	}
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && before(h[c+1], h[c]) {
			c++
		}
		if !before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
