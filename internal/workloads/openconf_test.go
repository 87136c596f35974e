package workloads

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/engine/flink"
	"repro/internal/engine/mapreduce"
	"repro/internal/engine/spark"
)

// TestSettingsAreFixedAtOpen pins that an engine takes its settings once,
// when the session opens: setting shuffle.strategy and the engine's
// parallelism key on the Config after Open changes nothing. The job runs the
// same tasks and stages and writes the same output parts as a run on a
// session whose Config was never touched. Flink's parts are compared as
// sorted lines: a pipelined reducer emits in arrival order, which differs
// between two untouched runs too. The spark/pagerank row does the same for
// spark.edge.partitions, which the graph lowering reads. Every engine copies
// the Config when it is built and lowering reads only that copy, so the rows
// stand for every key; exec.batch.size, read while lowering each operator,
// is fixed by construction the same way.
func TestSettingsAreFixedAtOpen(t *testing.T) {
	text := datagen.Text(5, 64<<10, 10)
	parKey := map[string]string{
		"spark":     core.SparkDefaultParallelism,
		"flink":     core.FlinkDefaultParallelism,
		"mapreduce": core.MRReduceTasks,
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
	t.Run("spark/pagerank", func(t *testing.T) {
		edges := datagen.RMAT(29, datagen.GraphSpec{Name: "fixed", Vertices: 96, Edges: 400})
		pageRank := func(afterOpen func(*core.Config)) (tasks, stages int64) {
			var conf *core.Config
			s := paritySessionConf(t, "spark", func(c *core.Config) { conf = c })
			afterOpen(conf)
			if _, _, err := PageRank(s, edges, 3); err != nil {
				t.Fatal(err)
			}
			m := s.Metrics()
			return m.TasksLaunched.Load(), m.Stages.Load()
		}
		wantTasks, wantStages := pageRank(func(*core.Config) {})
		gotTasks, gotStages := pageRank(func(conf *core.Config) { conf.SetInt(core.SparkEdgePartitions, 3) })
		if gotTasks != wantTasks || gotStages != wantStages {
			t.Errorf("after setting %s on the opened Config: %d tasks in %d stages, want %d in %d",
				core.SparkEdgePartitions, gotTasks, gotStages, wantTasks, wantStages)
		}
	})
}

// TestOpenRejectsBadSettings: a typo is an error, not a different
// experiment. An unknown key or a value its key does not accept makes
// dataflow.Open fail on every engine, with an error that names the key.
func TestOpenRejectsBadSettings(t *testing.T) {
	for _, kv := range [][2]string{
		{"spark.serialiser", "kryo"},
		{core.SparkSerializer, "kyro"},
		{core.FlinkCombineStrategy, "Sort"},
		{core.ShuffleStrategy, "merge"},
		{core.ShuffleCompress, "zstd"},
		{core.ExecBatchSize, "-1"},
		{core.FlinkMemoryFraction, "1.5"},
		{core.BufferSize, "12XB"},
	} {
		for _, engine := range dataflow.Names() {
			conf := core.NewConfig().Set(kv[0], kv[1])
			_, err := dataflow.Open(engine, dataflow.WithConfig(conf))
			if err == nil || !strings.Contains(err.Error(), kv[0]) {
				t.Errorf("%s with %s=%s: Open error %v, want one naming %s", engine, kv[0], kv[1], err, kv[0])
			}
		}
	}
}

// TestEnginesRefuseBadSettings: an engine built without dataflow.Open refuses
// the Config Open refuses. Each constructor panics with the Config's error,
// which names the key, instead of running on the key's old value.
func TestEnginesRefuseBadSettings(t *testing.T) {
	for _, row := range []struct {
		engine, key, value string
		build              func(*core.Config, *cluster.Runtime, *dfs.FS)
	}{
		{"spark", core.SparkSerializer, "kyro", func(c *core.Config, rt *cluster.Runtime, fs *dfs.FS) {
			spark.NewContext(c, rt, fs)
		}},
		{"flink", core.FlinkCombineStrategy, "Sort", func(c *core.Config, rt *cluster.Runtime, fs *dfs.FS) {
			flink.NewEnv(c, rt, fs)
		}},
		{"mapreduce", core.MRSortRecords, "0", func(c *core.Config, rt *cluster.Runtime, fs *dfs.FS) {
			mapreduce.NewCluster(c, rt, fs)
		}},
	} {
		spec := cluster.Spec{Nodes: 2, CoresPerNode: 2, MemPerNode: core.GB, DiskSeqMiBps: 100, NetMiBps: 100}
		rt, err := cluster.NewRuntime(spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		conf := core.NewConfig().Set(row.key, row.value)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), row.key) {
					t.Errorf("%s with %s=%s: constructor panic %v, want one naming %s", row.engine, row.key, row.value, r, row.key)
				}
			}()
			row.build(conf, rt, dfs.New(spec.Nodes, 64*core.KB, 1))
		}()
	}
}
