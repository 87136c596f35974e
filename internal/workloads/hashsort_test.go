package workloads

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
)

// TestHashShuffleSortsLikeTheDefault pins the hash strategy's reduce-side
// sort to the default path's order. Spark with spark.shuffle.manager=hash
// and mapreduce with shuffle.strategy=hash fetch unordered buckets and sort
// them whole (shuffle.SortByNormKey when the key has a normalized-key
// writer), where their defaults merge map-sorted runs. Both must be the
// stable order by key, so every output file is byte-identical to the
// default's: TeraSort's, WordCount's, and a sort of WordCount's text by
// word, each word carrying its line so the order of equal keys shows.
// TestCrossEngineParity's shuffle subtests cover TeraSort, whose keys are
// nearly unique; only the word sort fails when the hash path's sort is
// unstable.
func TestHashShuffleSortsLikeTheDefault(t *testing.T) {
	text := datagen.Text(23, 96*1024, 10)
	const teraRecords = 3000
	tera := datagen.TeraGen(19, teraRecords)
	teraPart := TeraPartitioner(tera, 4)
	hash := map[string]func(*core.Config){
		"spark":     func(c *core.Config) { c.Set(core.SparkShuffleManager, "hash") },
		"mapreduce": func(c *core.Config) { c.Set(core.ShuffleStrategy, "hash") },
	}
	run := func(t *testing.T, engine string, edit func(*core.Config)) (outs [3][]byte) {
		t.Helper()
		s := paritySessionConf(t, engine, edit)
		s.FS().WriteFile("wiki", text)
		s.FS().WriteFile("tera-in", tera)
		if err := TeraSort(s, "tera-in", "tera-out", teraPart); err != nil {
			t.Fatalf("terasort: %v", err)
		}
		if err := VerifyTeraSorted(s.FS(), "tera-out", teraRecords); err != nil {
			t.Fatalf("terasort validate: %v", err)
		}
		if err := WordCount(s, "wiki", "wc-out"); err != nil {
			t.Fatalf("wordcount: %v", err)
		}
		words := dataflow.FlatMapAppend(dataflow.TextFile(s, "wiki"),
			func(dst []core.Pair[string, string], line string) []core.Pair[string, string] {
				for _, w := range appendFields(nil, line) {
					dst = append(dst, core.KV(w, line))
				}
				return dst
			})
		sorted := dataflow.SortByKey(words, core.NewHashPartitioner[string](3))
		err := dataflow.SaveBytes(sorted, "words-out", func(dst []byte, p core.Pair[string, string]) []byte {
			return append(append(append(append(dst, p.Key...), '\t'), p.Value...), '\n')
		})
		if err != nil {
			t.Fatalf("word sort: %v", err)
		}
		for i, name := range []string{"tera-out", "wc-out", "words-out"} {
			f, err := s.FS().Open(name)
			if err != nil {
				t.Fatal(err)
			}
			outs[i] = f.Contents()
		}
		return outs
	}
	for _, engine := range []string{"spark", "mapreduce"} {
		t.Run(engine, func(t *testing.T) {
			want := run(t, engine, nil)
			got := run(t, engine, hash[engine])
			for i, name := range []string{"terasort", "wordcount", "word sort"} {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("%s %s output under the hash shuffle is not byte-identical to the default's (%d vs %d bytes)",
						engine, name, len(got[i]), len(want[i]))
				}
			}
		})
	}
}
