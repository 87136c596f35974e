package workloads

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/engine/flink"
	"repro/internal/memory"
)

// TestCombineCountersAgreeOnSparkAndFlink: both engines' map-side combine is
// the shuffle core's table, counted once per writer, so for the same splits —
// two blocks, two map tasks on spark, two source subtasks on flink — and
// nothing spilling, WordCount reports the same CombineInputRecords (every
// word) and CombineOutputRecs (every split's distinct words) on both, and
// the benchmark's per-engine combine_ratio cells agree.
func TestCombineCountersAgreeOnSparkAndFlink(t *testing.T) {
	text := datagen.Text(21, 64<<10, 10)
	words := int64(len(strings.Fields(string(text))))
	var counts [][2]int64
	for _, engine := range []string{"spark", "flink"} {
		s := paritySessionConf(t, engine, func(conf *core.Config) {
			conf.SetInt(core.SparkDefaultParallelism, 2).SetInt(core.FlinkDefaultParallelism, 2)
		}, dataflow.WithFS(dfs.New(2, core.ByteSize(len(text)+1)/2, 1)))
		f := s.FS().WriteFile("in", text)
		if f.NumBlocks() != 2 {
			t.Fatalf("the input is %d blocks, want 2", f.NumBlocks())
		}
		if err := WordCount(s, "in", "out"); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		m := s.Metrics()
		if m.SpillCount.Load() != 0 {
			t.Fatalf("%s spilled; the counters only agree when every table drains once", engine)
		}
		in, out := m.CombineInputRecords.Load(), m.CombineOutputRecs.Load()
		if in != words || out == 0 || out >= in {
			t.Errorf("%s: combine saw %d records and passed on %d, want all %d words in and fewer out", engine, in, out, words)
		}
		counts = append(counts, [2]int64{in, out})
	}
	if counts[0] != counts[1] {
		t.Errorf("(CombineInputRecords, CombineOutputRecs) = %v on spark, %v on flink, want equal", counts[0], counts[1])
	}
}

// TestFlinkCombineStrategiesKeepParity: whether the GroupCombine's table is
// bounded by managed memory or not, under either exchange strategy, with a
// budget that never refuses and with one segment a node that drains the table
// mid-stream — WordCount's output is spark's, byte for byte.
func TestFlinkCombineStrategiesKeepParity(t *testing.T) {
	text := datagen.Text(21, 512<<10, 10)
	ref := paritySession(t, "spark")
	ref.FS().WriteFile("wiki", text)
	if err := WordCount(ref, "wiki", "wc-out"); err != nil {
		t.Fatal(err)
	}
	want := sortedLines(t, ref, "wc-out")
	for _, combine := range []string{"sort", "hash"} {
		for _, strategy := range []string{"hash", "sort"} {
			for _, budget := range []core.ByteSize{256 * core.MB, core.ByteSize(memory.SegmentSize)} {
				s := paritySessionConf(t, "flink", func(conf *core.Config) {
					conf.Set(flink.FlinkCombineStrategy, combine).Set(core.ShuffleStrategy, strategy).
						SetBytes(core.FlinkTaskManagerMemory, budget).Set(core.FlinkMemoryFraction, "1.0")
				})
				s.FS().WriteFile("wiki", text)
				if err := WordCount(s, "wiki", "wc-out"); err != nil {
					t.Fatalf("combine=%s shuffle=%s budget=%d: %v", combine, strategy, budget, err)
				}
				if got := sortedLines(t, s, "wc-out"); got != want {
					t.Errorf("combine=%s shuffle=%s budget=%d: word counts differ from spark's", combine, strategy, budget)
				}
				tight := budget == core.ByteSize(memory.SegmentSize)
				if spills := s.Metrics().SpillCount.Load(); (spills > 0) != (tight && combine == "sort") {
					t.Errorf("combine=%s shuffle=%s budget=%d: %d spills", combine, strategy, budget, spills)
				}
			}
		}
	}
}

// TestWordCountOutputIgnoresIndexSeeds: every combine table hashes with a
// process-seeded index hash and every new table draws a fresh seed, so two
// runs of one job fold under different seeds. The output must not show it:
// byte for byte on spark and mapreduce (under both shuffle strategies —
// mapreduce's hash strategy groups its runs through the same index), whose
// output order follows first-seen order; line for line on flink, whose
// reduce emits in packet-arrival order.
func TestWordCountOutputIgnoresIndexSeeds(t *testing.T) {
	text := datagen.Text(23, 256<<10, 10)
	runs := []struct {
		engine  string
		edit    func(*core.Config)
		ordered bool
	}{
		{"spark", nil, true},
		{"mapreduce", nil, true},
		{"mapreduce", func(c *core.Config) { c.Set(core.ShuffleStrategy, "hash") }, true},
		{"flink", nil, false},
	}
	for _, r := range runs {
		var outs [2]string
		for i := range outs {
			s := paritySessionConf(t, r.engine, r.edit)
			s.FS().WriteFile("wiki", text)
			if err := WordCount(s, "wiki", "wc-out"); err != nil {
				t.Fatalf("%s: %v", r.engine, err)
			}
			if r.ordered {
				f, err := s.FS().Open("wc-out")
				if err != nil {
					t.Fatal(err)
				}
				outs[i] = string(f.Contents())
			} else {
				outs[i] = sortedLines(t, s, "wc-out")
			}
		}
		if outs[0] != outs[1] {
			t.Errorf("%s (hash strategy: %v): two runs of WordCount differ", r.engine, r.edit != nil)
		}
	}
}
