package dataflow_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dfs"
)

// vectorSession opens a session with exec.batch.size pinned, so the fused
// narrow chains drive batches of exactly that width.
func vectorSession(t *testing.T, engine string, width int) *dataflow.Session {
	t.Helper()
	return vectorSessionConf(t, engine, width, nil)
}

// vectorSessionConf is vectorSession with edit applied to the configuration
// last.
func vectorSessionConf(t *testing.T, engine string, width int, edit func(*core.Config)) *dataflow.Session {
	t.Helper()
	spec := cluster.Spec{Nodes: 2, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 200, NetMiBps: 200}
	rt, err := cluster.NewRuntime(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	conf := core.NewConfig().SetInt(core.ExecBatchSize, width)
	if engine == "flink" {
		conf.SetInt(core.FlinkDefaultParallelism, 4).SetInt(core.FlinkNetworkBuffers, 8192)
	}
	if edit != nil {
		edit(conf)
	}
	s, err := dataflow.Open(engine, dataflow.WithConfig(conf), dataflow.WithRuntime(rt), dataflow.WithFS(dfs.New(spec.Nodes, 16*core.KB, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// flatMapForms are the two ways to write vectorPipeline's tokenizer: a slice
// per line (FlatMap) and appends into the kernel's scratch (FlatMapAppend).
var flatMapForms = map[string]func(*dataflow.Dataset[string]) *dataflow.Dataset[string]{
	"FlatMap": func(lines *dataflow.Dataset[string]) *dataflow.Dataset[string] {
		return dataflow.FlatMap(lines, strings.Fields)
	},
	"FlatMapAppend": func(lines *dataflow.Dataset[string]) *dataflow.Dataset[string] {
		return dataflow.FlatMapAppend(lines, func(dst []string, l string) []string {
			for _, w := range strings.Fields(l) {
				dst = append(dst, w)
			}
			return dst
		})
	},
}

// vectorPipeline runs the reference narrow+wide pipeline — flatMap (in the
// given form) → filter → mapToPair → reduceByKey, plus a pure narrow
// Collect — and returns both results canonically ordered.
func vectorPipeline(t *testing.T, s *dataflow.Session, engine, form string) (string, string) {
	t.Helper()
	s.FS().WriteFile("vec-in", []byte(vectorInput))
	lines := dataflow.TextFile(s, "vec-in")
	words := flatMapForms[form](lines)
	short := dataflow.Filter(words, func(w string) bool { return len(w) <= 4 })
	bang := dataflow.Map(short, func(w string) string { return w + "!" })
	narrow, err := dataflow.Collect(bang)
	if err != nil {
		t.Fatalf("%s narrow: %v", engine, err)
	}
	sort.Strings(narrow)

	pairs := dataflow.MapToPair(short, func(w string) core.Pair[string, int64] { return core.KV(w, int64(1)) })
	counts, err := dataflow.Collect(dataflow.ReduceByKey(pairs, func(a, b int64) int64 { return a + b }))
	if err != nil {
		t.Fatalf("%s keyed: %v", engine, err)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i].Key < counts[j].Key })
	return fmt.Sprint(narrow), fmt.Sprint(counts)
}

// vectorInput is vectorPipeline's input: five fixed lines, two of which
// expand to no words at all, so some batches (every one at width 1) reach
// the filter empty.
const vectorInput = "the quick brown fox\n\njumps over the lazy dog\n \t \nthe end\n"

// TestVectorizedMatchesRecordAtATime pins the batch kernels to a plain loop
// over the same lines: the pipeline must produce the loop's results on every
// engine, in both FlatMap forms, at even and deliberately odd widths,
// including the degenerate width 1, which is record-at-a-time execution.
// The filter downstream of the FlatMap writes its selection into the
// FlatMap's reused output batch, so a stale selection from one batch would
// show in the next.
func TestVectorizedMatchesRecordAtATime(t *testing.T) {
	var narrowRef []string
	tally := map[string]int64{}
	for _, w := range strings.Fields(vectorInput) {
		if len(w) <= 4 {
			narrowRef = append(narrowRef, w+"!")
			tally[w]++
		}
	}
	sort.Strings(narrowRef)
	var keyedRef []core.Pair[string, int64]
	for w, n := range tally {
		keyedRef = append(keyedRef, core.KV(w, n))
	}
	sort.Slice(keyedRef, func(i, j int) bool { return keyedRef[i].Key < keyedRef[j].Key })
	wantNarrow, wantKeyed := fmt.Sprint(narrowRef), fmt.Sprint(keyedRef)

	for _, engine := range dataflow.Names() {
		for _, form := range []string{"FlatMap", "FlatMapAppend"} {
			for _, width := range []int{1, 3, 256, 1024} {
				narrow, keyed := vectorPipeline(t, vectorSession(t, engine, width), engine, form)
				if narrow != wantNarrow {
					t.Errorf("%s %s width=%d narrow result %v, want %v", engine, form, width, narrow, wantNarrow)
				}
				if keyed != wantKeyed {
					t.Errorf("%s %s width=%d keyed result %v, want %v", engine, form, width, keyed, wantKeyed)
				}
			}
		}
	}
}

// TestVectorizedEmptySelection drives a fused chain whose filter rejects
// everything: the batch path must emit nothing (compaction of an all-dead
// selection) without wedging any engine.
func TestVectorizedEmptySelection(t *testing.T) {
	for _, engine := range dataflow.Names() {
		s := vectorSession(t, engine, 3)
		s.FS().WriteFile("vec-none", []byte("a\nb\nc\nd\ne\n"))
		none := dataflow.Filter(dataflow.TextFile(s, "vec-none"), func(string) bool { return false })
		got, err := dataflow.Collect(dataflow.Map(none, strings.ToUpper))
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if len(got) != 0 {
			t.Errorf("%s: all-dead selection yielded %v", engine, got)
		}
	}
}
