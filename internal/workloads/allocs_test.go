package workloads

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/engine/mapreduce"
)

// TestWordCountAllocatesLessThanOncePerWord guards the aggregation path's
// allocation count end to end, measured as the repo benchmark measures it
// (the MemStats.Mallocs delta around the action call). A word that reaches
// a map-side combiner must cost no allocation of its own: it folds into its
// key's entry in place. The engines that buffered every (word, 1) pair and
// regrouped it through per-key slices, or boxed every key to hash it, ran
// at 2.2–2.7 allocations per word. What is left is per distinct key (decoded
// strings, mapreduce's per-run combine groups, formatted output), which is
// why the input is 2 MiB: the generator's vocabulary is fixed, and at 1 MiB
// those per-key costs alone put mapreduce at 0.53 per word.
func TestWordCountAllocatesLessThanOncePerWord(t *testing.T) {
	text := datagen.Text(11, 2<<20, 10)
	words := len(bytes.Fields(text))
	for _, engine := range dataflow.Names() {
		s := paritySessionConf(t, engine, func(c *core.Config) {
			c.SetInt(core.SparkDefaultParallelism, 2).
				SetInt(core.FlinkDefaultParallelism, 2).
				SetInt(mapreduce.MRReduceTasks, 2)
		}, dataflow.WithFS(dfs.New(2, 1024*core.KB, 1)))
		s.FS().WriteFile("wiki", text)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := WordCount(s, "wiki", "wc-out")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		perWord := float64(after.Mallocs-before.Mallocs) / float64(words)
		t.Logf("%s: %.3f allocations per input word (%d words)", engine, perWord, words)
		if perWord > 0.5 {
			t.Errorf("%s: WordCount allocates %.2f times per input word, want at most 0.5", engine, perWord)
		}
	}
}
