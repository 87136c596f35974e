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
// trailing and repeated spaces.
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
