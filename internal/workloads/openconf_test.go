package workloads

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine/mapreduce"
)

// TestSettingsAreFixedAtOpen pins that an engine resolves its settings
// once, when the session opens: setting shuffle.strategy and the engine's
// parallelism key on the Config after Open changes nothing. The job runs the
// same tasks and stages and writes the same output parts as a run on a
// session whose Config was never touched. Flink's parts are compared as
// sorted lines: a pipelined reducer emits in arrival order, which differs
// between two untouched runs too.
func TestSettingsAreFixedAtOpen(t *testing.T) {
	text := datagen.Text(5, 64<<10, 10)
	parKey := map[string]string{
		"spark":     core.SparkDefaultParallelism,
		"flink":     core.FlinkDefaultParallelism,
		"mapreduce": mapreduce.MRReduceTasks,
	}
	type run struct {
		tasks, stages int64
		parts         []string
	}
	wordCount := func(t *testing.T, engine string, afterOpen func(*core.Config)) run {
		t.Helper()
		var conf *core.Config
		s := paritySessionConf(t, engine, func(c *core.Config) { conf = c })
		afterOpen(conf)
		s.FS().WriteFile("wiki", text)
		if err := WordCount(s, "wiki", "wc-out"); err != nil {
			t.Fatal(err)
		}
		f, err := s.FS().Open("wc-out")
		if err != nil {
			t.Fatal(err)
		}
		m := s.Metrics()
		r := run{tasks: m.TasksLaunched.Load(), stages: m.Stages.Load()}
		for i := 0; i < f.NumParts(); i++ {
			part := string(f.Part(i))
			if engine == "flink" {
				lines := strings.SplitAfter(part, "\n")
				sort.Strings(lines)
				part = strings.Join(lines, "")
			}
			r.parts = append(r.parts, part)
		}
		return r
	}
	for engine, key := range parKey {
		engine, key := engine, key
		t.Run(engine, func(t *testing.T) {
			want := wordCount(t, engine, func(*core.Config) {})
			got := wordCount(t, engine, func(conf *core.Config) {
				conf.Set(core.ShuffleStrategy, nonDefaultStrategy(engine)).SetInt(key, 3)
			})
			if got.tasks != want.tasks || got.stages != want.stages {
				t.Errorf("after Set on the opened Config: %d tasks in %d stages, want %d in %d",
					got.tasks, got.stages, want.tasks, want.stages)
			}
			if !slices.Equal(got.parts, want.parts) {
				t.Errorf("after Set on the opened Config the output parts differ from an untouched session's (%d parts, want %d)",
					len(got.parts), len(want.parts))
			}
		})
	}
}
