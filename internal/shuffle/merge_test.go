package shuffle

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
)

// mergeStem is the eight-byte stem FuzzMerge's keys may share, so their
// prefixes tie and only the bytes after it order them.
const mergeStem = "stem0000"

// FuzzMerge cuts arbitrary bytes into 0–10 sorted segments and holds the
// prefix-first merge — MergeByNormKey and ParallelMerge, with the key writer
// or without one — to a comparator-only stable merge: the segments'
// concatenation under sort.SliceStable, so equal keys drain in segment order
// and within a segment in its own order (the values say where each record
// came from). The first byte picks the segment count (its value mod 11) and,
// with its top bit, a nil key writer. Every record is a segment byte, a
// length byte and that many key bytes: the length's low four bits give 0–15
// bytes, bit 4 puts the shared stem in front, bit 5 repeats the previous key
// instead — keys of at most eight bytes, keys with equal prefixes that only
// the bytes after them decide, keys that are proper prefixes of others,
// empty keys and duplicates across segments all come out of short inputs.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 'a', 1, 2, 'a', 'b', 2, 0, 0, 0x20, 1, 0x21, 'a'})
	f.Add([]byte{0x82, 0, 0x11, 'x', 1, 0x10, 0, 0x12, 'x', 'y', 1, 0x11, 'x', 0, 0x20})
	f.Add([]byte{10, 0, 8, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 1, 9, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 0,
		2, 7, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 3, 0x30, 4, 0x20, 5, 0, 6, 1, 0, 7, 0x18, 0, 0, 0, 0, 0, 0, 0, 0,
		8, 0x28, 9, 0x10})
	f.Add(append([]byte{9}, bytes.Repeat([]byte{0, 0x11, 'k', 1, 0x11, 'k', 2, 0x12, 'k', 'a'}, 12)...))
	less := func(a, b core.Pair[string, int]) bool { return a.Key < b.Key }
	key := func(p core.Pair[string, int], dst []byte) []byte { return append(dst, p.Key...) }
	f.Fuzz(func(t *testing.T, data []byte) {
		var head byte
		if len(data) > 0 {
			head, data = data[0], data[1:]
		}
		segs := make([][]core.Pair[string, int], int(head&0x7f)%11)
		nk := key
		if head&0x80 != 0 {
			nk = nil
		}
		var prev string
		for len(segs) > 0 && len(data) >= 2 {
			s, l := int(data[0])%len(segs), data[1]
			data = data[2:]
			k := prev
			if l&0x20 == 0 {
				n := min(int(l&15), len(data))
				k = string(data[:n])
				data = data[n:]
				if l&0x10 != 0 {
					k = mergeStem + k
				}
			}
			prev = k
			segs[s] = append(segs[s], core.KV(k, 0))
		}
		for s, seg := range segs {
			sort.SliceStable(seg, func(i, j int) bool { return less(seg[i], seg[j]) })
			for i := range seg {
				seg[i].Value = 1000*s + i
			}
		}
		want := slices.Concat(segs...)
		sort.SliceStable(want, func(i, j int) bool { return less(want[i], want[j]) })
		check := func(name string, got []core.Pair[string, int]) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s (key writer %t): %d records, want %d", name, nk != nil, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s (key writer %t): position %d holds %q/%d, the stable merge puts %q/%d there",
						name, nk != nil, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
				}
			}
		}
		check("MergeByNormKey", MergeByNormKey(segs, less, nk))
		check("ParallelMerge", ParallelMerge(&seqSubtasker{}, 0, segs, less, nk))
	})
}
