package main

import (
	"bytes"
	"os"
	"testing"
)

// TestTableIGolden pins Table I: the plan every engine runs for every
// workload. A change to what runs shows up here, and in review as a diff of
// testdata/plans.golden; regenerate it with
// go run ./cmd/planviz > cmd/planviz/testdata/plans.golden.
func TestTableIGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/plans.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := printTableI(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}
