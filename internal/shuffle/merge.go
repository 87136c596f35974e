package shuffle

import "math"

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

// Merge is MergeByNormKey without a key writer: every comparison calls less.
func Merge[R any](segs [][]R, less func(a, b R) bool) []R {
	return MergeByNormKey(segs, less, nil)
}

// MergeByNormKey k-way merges sorted segments into one sorted stream with a
// binary min-heap over the segment heads, stable across segments (equal
// records drain in segment order) — O(records · log segments). The heap is
// typed: no interface dispatch per comparison, no boxing per pop.
//
// key, when non-nil, is the segments' normalized-key writer (Spec.NormKey,
// under the same contract: total, and bytes.Compare over its output orders
// exactly as less does). Each heap entry then caches its head's eight-byte
// prefix and key length, written once when the head arrives, and heads are
// ordered the way SortByNormKey orders entries: by prefix as an integer, then
// — prefixes equal — a key of at most eight bytes before a longer one and the
// shorter of two such keys first. less runs only for two heads whose equal
// prefixes are both followed by more key bytes, or for every comparison when
// key is nil. The merged order is the same either way.
func MergeByNormKey[R any](segs [][]R, less func(a, b R) bool, key func(v R, dst []byte) []byte) []R {
	segs = nonEmpty(segs)
	switch len(segs) {
	case 0:
		return nil
	case 1:
		return segs[0]
	}
	m := merger[R]{segs: segs, less: less, key: key, h: make([]mergeEntry, len(segs))}
	total := 0
	for s, seg := range segs {
		total += len(seg)
		m.h[s].seg = s
		m.head(&m.h[s])
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	out := make([]R, 0, total)
	for len(m.h) > 0 {
		e := &m.h[0]
		out = append(out, segs[e.seg][e.idx])
		e.idx++
		if e.idx == len(segs[e.seg]) {
			m.h[0] = m.h[len(m.h)-1]
			m.h = m.h[:len(m.h)-1]
		} else {
			m.head(e)
		}
		m.siftDown(0)
	}
	return out
}

// ParallelMerge merges many sorted segments through the runtime: segments
// are split into fan-in-sized groups merged by concurrent subtasks on the
// consuming task's node, then a final pass merges the group results. With a
// nil runtime or few segments it degrades to the sequential merge. less and
// key are MergeByNormKey's.
func ParallelMerge[R any](rt Subtasker, node int, segs [][]R, less func(a, b R) bool, key func(v R, dst []byte) []byte) []R {
	segs = nonEmpty(segs)
	if rt == nil || len(segs) <= mergeFanIn {
		return MergeByNormKey(segs, less, key)
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
			results[g] = MergeByNormKey(segs[lo:hi], less, key)
			return nil
		}
	}
	if err := rt.Subtasks(node, fns); err != nil {
		// A rejected placement cannot happen for a node the task already
		// runs on; degrade to the sequential pass if it somehow does.
		return MergeByNormKey(segs, less, key)
	}
	return MergeByNormKey(results, less, key)
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

// mergeEntry is one segment's cursor on the merge heap, with its head's
// normalized-key prefix and key length when the merge has a key writer.
type mergeEntry struct {
	prefix uint64
	klen   int
	seg    int
	idx    int
}

// unkeyed is the key length of a head whose key was not written: longer than
// any prefix, so equal prefixes (all zero) always fall through to less.
const unkeyed = math.MaxInt

// merger is one MergeByNormKey call's heap and what it orders by.
type merger[R any] struct {
	segs [][]R
	less func(a, b R) bool
	key  func(v R, dst []byte) []byte
	buf  []byte // the key writer's scratch, reused for every head
	h    []mergeEntry
}

// head caches e's new head's prefix and key length.
func (m *merger[R]) head(e *mergeEntry) {
	if m.key == nil {
		e.klen = unkeyed
		return
	}
	m.buf = m.key(m.segs[e.seg][e.idx], m.buf[:0])
	e.prefix, e.klen = keyPrefix(m.buf), len(m.buf)
}

// before reports whether head a drains before head b. Differing prefixes
// decide as integers; equal prefixes of keys no longer than the prefix decide
// by length, and equal keys by segment; only two longer keys — or two unkeyed
// heads — need less. Equal records drain in segment order, keeping the merge
// stable: one less call decides either way.
func (m *merger[R]) before(a, b *mergeEntry) bool {
	if a.prefix != b.prefix {
		return a.prefix < b.prefix
	}
	if a.klen <= 8 || b.klen <= 8 {
		if a.klen != b.klen {
			return a.klen < b.klen
		}
		return a.seg < b.seg
	}
	ra, rb := m.segs[a.seg][a.idx], m.segs[b.seg][b.idx]
	if a.seg < b.seg {
		return !m.less(rb, ra)
	}
	return m.less(ra, rb)
}

// siftDown restores the heap below position i.
func (m *merger[R]) siftDown(i int) {
	h := m.h
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && m.before(&h[c+1], &h[c]) {
			c++
		}
		if !m.before(&h[c], &h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
