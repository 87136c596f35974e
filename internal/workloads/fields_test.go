package workloads

import (
	"slices"
	"strings"
	"testing"
)

// FuzzAppendFields holds WordCount's tokenizer to strings.Fields on
// arbitrary bytes: appended after a non-empty prefix, the fields must be
// exactly strings.Fields' and the prefix must be untouched. The seeds cover
// every ASCII separator, the Unicode white space only the fallback knows
// (U+0085, U+00A0, U+3000), invalid UTF-8, an empty line, and leading,
// trailing and repeated spaces; and, for the eight-byte scan, words of 7,
// 8, 9, 15, 16 and 17 bytes at every offset into a lane, the control bytes
// 0x00–0x1F and 0x7F inside words (flagged or not, they are not
// separators), and a non-ASCII byte in each lane position.
func FuzzAppendFields(f *testing.F) {
	for _, seed := range []string{
		"", " ", "a", "the quick brown fox",
		"  leading", "trailing  ", "repeated    spaces  here",
		"tab\tseparated\t\tfields", "vertical\vtab", "form\ffeed", "carriage\rreturn\r\n",
		"next\u0085line", "no break", "ideographic　space", "mixed 　 ascii\tand wide",
		"invalid \xff utf8", "\xc3", "trunc\xe3\x80", "ascii then é",
	} {
		f.Add(seed)
	}
	for _, n := range []int{7, 8, 9, 15, 16, 17} {
		word := strings.Repeat("w", n)
		for lead := 0; lead < 8; lead++ {
			f.Add(strings.Repeat(" ", lead) + word + " " + word + "\t" + word)
		}
	}
	for c := byte(0); c < 0x20; c++ {
		f.Add("ab" + string(c) + "cdefghij k\x7fl mnopqrs" + string(c))
	}
	f.Add("\x7f \x7f\x7f\x7f\x7f\x7f\x7f\x7f\x7f del")
	for lane := 0; lane < 8; lane++ {
		line := []byte("abcdefgh ijklmnop")
		line[lane] = 0x80 + byte(lane)
		f.Add(string(line))
		line[lane] = 0xa0 // U+00A0's second byte alone: invalid UTF-8, not a space
		f.Add(string(line))
	}
	f.Fuzz(func(t *testing.T, line string) {
		prefix := []string{"p0", "p1", "p2"}
		dst := make([]string, len(prefix), len(prefix)+1) // room for one field: longer lines reallocate
		copy(dst, prefix)
		got := appendFields(dst, line)
		want := append(slices.Clone(prefix), strings.Fields(line)...)
		if !slices.Equal(got, want) {
			t.Fatalf("appendFields(%q) = %q, want %q", line, got, want)
		}
		if !slices.Equal(dst, prefix) {
			t.Fatalf("appendFields(%q) rewrote the prefix: %q", line, dst)
		}
	})
}
