package workloads

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/planner"
)

// paritySession builds one engine's session over its own runtime and
// filesystem, with the same laptop-scale tuning the other workload tests
// use.
func paritySession(t *testing.T, engine string) *dataflow.Session {
	return paritySessionConf(t, engine, nil)
}

// paritySpec is the cluster every parity session runs on.
var paritySpec = cluster.Spec{Nodes: 2, CoresPerNode: 8, MemPerNode: core.GB, DiskSeqMiBps: 100, NetMiBps: 100}

// paritySessionConf is paritySession with a configuration hook, run on the
// configuration before the session opens (the non-default shuffle strategy
// runs and the planner-chosen configuration runs use it), and extra Open
// options (a test that needs another block size passes its own WithFS).
func paritySessionConf(t *testing.T, engine string, edit func(*core.Config), extra ...dataflow.Option) *dataflow.Session {
	t.Helper()
	rt, err := cluster.NewRuntime(paritySpec, 8)
	if err != nil {
		t.Fatal(err)
	}
	conf := core.NewConfig()
	switch engine {
	case "spark":
		conf.SetInt(core.SparkDefaultParallelism, 8).SetBytes(core.SparkExecutorMemory, 256*core.MB)
	case "flink":
		conf.SetInt(core.FlinkDefaultParallelism, 4).
			SetBytes(core.FlinkTaskManagerMemory, 256*core.MB).
			SetInt(core.FlinkNetworkBuffers, 8192)
	}
	if edit != nil {
		edit(conf)
	}
	opts := append([]dataflow.Option{
		dataflow.WithConfig(conf), dataflow.WithRuntime(rt),
		dataflow.WithFS(dfs.New(paritySpec.Nodes, 16*core.KB, 1)),
	}, extra...)
	s, err := dataflow.Open(engine, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// nonDefaultStrategy returns the shuffle strategy an engine does NOT
// default to (see the matrix in internal/shuffle).
func nonDefaultStrategy(engine string) string {
	if engine == "flink" {
		return "sort"
	}
	return "hash"
}

// sortedLines canonicalizes a text output file (the engines write records
// in engine-specific partition order).
func sortedLines(t *testing.T, s *dataflow.Session, name string) string {
	t.Helper()
	f, err := s.FS().Open(name)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(f.Contents()), "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestCrossEngineParity runs every single-definition workload on all three
// engines and requires byte-identical results: identical word
// counts, identical grep counts, byte-identical sorted output, identical
// converged centers. It is the correctness contract of the unified API —
// one logical plan, three physical plans, one answer. The CI race job runs
// it under -race.
func TestCrossEngineParity(t *testing.T) {
	engines := dataflow.Names()
	if len(engines) < 3 {
		t.Fatalf("expected 3 engines, got %v", engines)
	}

	text := datagen.Text(21, 96*1024, 10)
	logs := datagen.GrepText(5, 4000, "NEEDLE", 0.08)
	const teraRecords = 3000
	tera := datagen.TeraGen(13, teraRecords)
	teraPart := TeraPartitioner(tera, 4)
	points, _ := datagen.KMeansPoints(17, 3000, 3, 2.0)
	graphEdges := datagen.RMAT(29, datagen.GraphSpec{Name: "parity", Vertices: 96, Edges: 400})

	type result struct {
		wordCounts string // sorted "{word n}" lines
		grepCount  int64
		multi      []int64
		teraBytes  []byte
		centers    string // "%.6f" formatted, key order
		ranks      string // rank-rounded "%.6f", vertex id order
		prSteps    int
		labels     string // CC labels, vertex id order
		ccSteps    int
		dists      string // SSSP distances, vertex id order
		ssspSteps  int
	}
	results := map[string]result{}

	for _, engine := range engines {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			s := paritySession(t, engine)
			s.FS().WriteFile("wiki", text)
			s.FS().WriteFile("logs", logs)
			s.FS().WriteFile("tera-in", tera)

			var res result
			if err := WordCount(s, "wiki", "wc-out"); err != nil {
				t.Fatalf("wordcount: %v", err)
			}
			res.wordCounts = sortedLines(t, s, "wc-out")

			n, err := Grep(s, "logs", "NEEDLE")
			if err != nil {
				t.Fatalf("grep: %v", err)
			}
			res.grepCount = n

			res.multi, err = GrepMultiFilter(s, "logs", []string{"NEEDLE", "ba", "re"})
			if err != nil {
				t.Fatalf("grep multi-filter: %v", err)
			}

			if err := TeraSort(s, "tera-in", "tera-out", teraPart); err != nil {
				t.Fatalf("terasort: %v", err)
			}
			if err := VerifyTeraSorted(s.FS(), "tera-out", teraRecords); err != nil {
				t.Fatalf("terasort validate: %v", err)
			}
			tf, err := s.FS().Open("tera-out")
			if err != nil {
				t.Fatal(err)
			}
			res.teraBytes = tf.Contents()

			centers, err := KMeans(s, points, 3, 10)
			if err != nil {
				t.Fatalf("kmeans: %v", err)
			}
			var sb strings.Builder
			for _, c := range centers {
				fmt.Fprintf(&sb, "(%.6f,%.6f) ", c.X, c.Y)
			}
			res.centers = sb.String()
			// Every engine must genuinely cluster, not just agree.
			cost := KMeansCost(points, centers)
			single := KMeansCost(points, []datagen.Point{{X: 0, Y: 0}})
			if cost > single/10 {
				t.Errorf("clustering failed on %s: cost %v vs single-center %v", engine, cost, single)
			}

			// The graph workloads: one Pregel definition, three lowerings.
			// Ranks and distances are rounded to 1e-6 (mergeMsg folds floats
			// in engine-specific orders); labels compare exactly.
			ranks, prSteps, err := PageRank(s, graphEdges, 12)
			if err != nil {
				t.Fatalf("pagerank: %v", err)
			}
			res.ranks = formatVertexMap(ranks, func(r float64) string { return fmt.Sprintf("%.6f", r) })
			res.prSteps = prSteps

			labels, ccSteps, err := ConnectedComponents(s, graphEdges, 50)
			if err != nil {
				t.Fatalf("connected components: %v", err)
			}
			res.labels = formatVertexMap(labels, func(l int64) string { return fmt.Sprint(l) })
			res.ccSteps = ccSteps
			if ccSteps <= 0 || ccSteps >= 50 {
				t.Errorf("CC did not detect convergence: %d supersteps", ccSteps)
			}

			dists, ssspSteps, err := SSSP(s, graphEdges, 0, 50)
			if err != nil {
				t.Fatalf("sssp: %v", err)
			}
			res.dists = formatVertexMap(dists, func(d float64) string { return fmt.Sprintf("%.6f", d) })
			res.ssspSteps = ssspSteps
			if ssspSteps <= 0 || ssspSteps >= 50 {
				t.Errorf("SSSP did not detect convergence: %d supersteps", ssspSteps)
			}

			results[engine] = res
		})
	}
	if t.Failed() {
		return
	}

	// Reference checks against direct computation.
	ref := map[string]int64{}
	for _, w := range strings.Fields(string(text)) {
		ref[w]++
	}
	wantGrep := int64(0)
	for _, line := range strings.Split(string(logs), "\n") {
		if strings.Contains(line, "NEEDLE") {
			wantGrep++
		}
	}

	base := engines[0]
	want := results[base]
	if got := int64(strings.Count(want.wordCounts, "\n") + 1); got != int64(len(ref)) {
		t.Errorf("%s found %d distinct words, reference %d", base, got, len(ref))
	}
	if want.grepCount != wantGrep {
		t.Errorf("%s grep count = %d, reference %d", base, want.grepCount, wantGrep)
	}
	for _, engine := range engines[1:] {
		got := results[engine]
		if got.wordCounts != want.wordCounts {
			t.Errorf("word counts differ: %s vs %s", engine, base)
		}
		if got.grepCount != want.grepCount {
			t.Errorf("grep counts differ: %s=%d %s=%d", engine, got.grepCount, base, want.grepCount)
		}
		if fmt.Sprint(got.multi) != fmt.Sprint(want.multi) {
			t.Errorf("multi-filter counts differ: %s=%v %s=%v", engine, got.multi, base, want.multi)
		}
		if !bytes.Equal(got.teraBytes, want.teraBytes) {
			t.Errorf("terasort outputs are not byte-identical: %s vs %s", engine, base)
		}
		if got.centers != want.centers {
			t.Errorf("kmeans centers differ:\n%s: %s\n%s: %s", engine, got.centers, base, want.centers)
		}
		if got.ranks != want.ranks {
			t.Errorf("pagerank ranks differ:\n%s: %s\n%s: %s", engine, got.ranks, base, want.ranks)
		}
		if got.labels != want.labels {
			t.Errorf("cc labels differ:\n%s: %s\n%s: %s", engine, got.labels, base, want.labels)
		}
		if got.dists != want.dists {
			t.Errorf("sssp distances differ:\n%s: %s\n%s: %s", engine, got.dists, base, want.dists)
		}
		if got.prSteps != want.prSteps || got.ccSteps != want.ccSteps || got.ssspSteps != want.ssspSteps {
			t.Errorf("superstep counts differ: %s=(%d,%d,%d) %s=(%d,%d,%d)",
				engine, got.prSteps, got.ccSteps, got.ssspSteps,
				base, want.prSteps, want.ccSteps, want.ssspSteps)
		}
	}

	// The shuffle subsystem's contract: forcing each engine onto its
	// NON-default strategy (plus the lz block codec) must not change one
	// byte of workload output — same logical plan, same answer, different
	// shuffle physics.
	for _, engine := range engines {
		engine := engine
		strat := nonDefaultStrategy(engine)
		t.Run(engine+"/shuffle="+strat, func(t *testing.T) {
			s := paritySessionConf(t, engine, func(conf *core.Config) {
				conf.Set(core.ShuffleStrategy, strat).Set(core.ShuffleCompress, "lz")
			})
			s.FS().WriteFile("wiki", text)
			s.FS().WriteFile("tera-in", tera)
			if err := WordCount(s, "wiki", "wc-out"); err != nil {
				t.Fatalf("wordcount under %s shuffle: %v", strat, err)
			}
			if got := sortedLines(t, s, "wc-out"); got != want.wordCounts {
				t.Errorf("%s word counts under %s shuffle differ from the default strategy", engine, strat)
			}
			if err := TeraSort(s, "tera-in", "tera-out", teraPart); err != nil {
				t.Fatalf("terasort under %s shuffle: %v", strat, err)
			}
			if err := VerifyTeraSorted(s.FS(), "tera-out", teraRecords); err != nil {
				t.Fatalf("terasort validate under %s shuffle: %v", strat, err)
			}
			tf, err := s.FS().Open("tera-out")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tf.Contents(), want.teraBytes) {
				t.Errorf("%s terasort output under %s shuffle is not byte-identical", engine, strat)
			}
			// The lz codec was really on: wire bytes beat raw bytes on
			// this compressible text/key data.
			m := s.Metrics()
			if m.ShuffleBytesWritten.Load() >= m.ShuffleRawBytesWritten.Load() {
				t.Errorf("%s: compressed shuffle wrote %d wire bytes for %d raw bytes",
					engine, m.ShuffleBytesWritten.Load(), m.ShuffleRawBytesWritten.Load())
			}
		})
	}

	// The batch kernel's contract: the width narrow operators run at is
	// physics too. A deliberately odd exec.batch.size, which leaves a ragged
	// last batch in every split, must not change one byte either.
	for _, engine := range engines {
		engine := engine
		t.Run(engine+"/batch=3", func(t *testing.T) {
			s := paritySessionConf(t, engine, func(conf *core.Config) { conf.SetInt(core.ExecBatchSize, 3) })
			s.FS().WriteFile("tera-in", tera)
			if err := TeraSort(s, "tera-in", "tera-out", teraPart); err != nil {
				t.Fatalf("terasort at batch width 3: %v", err)
			}
			tf, err := s.FS().Open("tera-out")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tf.Contents(), want.teraBytes) {
				t.Errorf("%s terasort output at batch width 3 is not byte-identical", engine)
			}
		})
	}

	// The planner's contract: whatever physical configuration the cost
	// model picks — strategy, codec, parallelism — the workload output
	// stays byte-identical to the hand-tuned runs above. The parallelism
	// keys are deliberately NOT pinned here, so the planner genuinely
	// decides them.
	for _, engine := range engines {
		engine := engine
		t.Run(engine+"/planner", func(t *testing.T) {
			// planned opens a session on the configuration the planner
			// picks for spec: plan, apply the decision, then open.
			planned := func(spec planner.PlanSpec) (*dataflow.Session, planner.Candidate) {
				var chosen planner.Candidate
				s := paritySessionConf(t, engine, func(conf *core.Config) {
					conf.SetBytes(core.SparkExecutorMemory, 256*core.MB).
						SetBytes(core.FlinkTaskManagerMemory, 256*core.MB).
						SetInt(core.FlinkNetworkBuffers, 8192)
					d, err := (&planner.Planner{Provider: &planner.SimCost{Base: conf}, Spec: paritySpec}).PlanFor(engine, spec)
					if err != nil {
						t.Fatal(err)
					}
					d.Apply(conf)
					chosen = d.Chosen
				})
				return s, chosen
			}
			s, chosen := planned(planner.PlanSpec{Workload: "WordCount", Shape: planner.Aggregate,
				Input: planner.InputStats{Bytes: int64(len(text))}})
			s.FS().WriteFile("wiki", text)
			if err := WordCount(s, "wiki", "wc-out"); err != nil {
				t.Fatalf("wordcount under planner config %s: %v", chosen, err)
			}
			if got := sortedLines(t, s, "wc-out"); got != want.wordCounts {
				t.Errorf("%s word counts under planner config %s differ from the default runs",
					engine, chosen)
			}

			s, chosen = planned(planner.PlanSpec{Workload: "TeraSort", Shape: planner.Sort,
				Input: planner.InputStats{Bytes: int64(len(tera)), Records: teraRecords}})
			s.FS().WriteFile("tera-in", tera)
			if err := TeraSort(s, "tera-in", "tera-out", teraPart); err != nil {
				t.Fatalf("terasort under planner config %s: %v", chosen, err)
			}
			if err := VerifyTeraSorted(s.FS(), "tera-out", teraRecords); err != nil {
				t.Fatalf("terasort validate under planner config: %v", err)
			}
			tf, err := s.FS().Open("tera-out")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tf.Contents(), want.teraBytes) {
				t.Errorf("%s terasort output under planner config %s is not byte-identical",
					engine, chosen)
			}
		})
	}
}

// TestSSSPMatchesBFSReference pins the unified SSSP against a driver-side
// BFS on every backend (hop distances over directed edges, +Inf for
// unreachable vertices).
func TestSSSPMatchesBFSReference(t *testing.T) {
	edges := datagen.RMAT(41, datagen.GraphSpec{Name: "sssp", Vertices: 64, Edges: 200})
	// Reference BFS from vertex 0.
	adj := map[int64][]int64{}
	seen := map[int64]bool{}
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
		seen[e.Src], seen[e.Dst] = true, true
	}
	want := map[int64]float64{}
	for id := range seen {
		want[id] = math.Inf(1)
	}
	want[0] = 0
	frontier := []int64{0}
	for d := 1.0; len(frontier) > 0; d++ {
		var next []int64
		for _, v := range frontier {
			for _, w := range adj[v] {
				if math.IsInf(want[w], 1) {
					want[w] = d
					next = append(next, w)
				}
			}
		}
		frontier = next
	}

	for _, engine := range dataflow.Names() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			dists, _, err := SSSP(paritySession(t, engine), edges, 0, 100)
			if err != nil {
				t.Fatal(err)
			}
			if len(dists) != len(want) {
				t.Fatalf("labelled %d vertices, want %d", len(dists), len(want))
			}
			for id, wd := range want {
				if got := dists[id]; got != wd && !(math.IsInf(got, 1) && math.IsInf(wd, 1)) {
					t.Errorf("dist[%d] = %v, want %v", id, got, wd)
				}
			}
		})
	}
}

// formatVertexMap renders a vertex-keyed map in ascending id order so
// engine outputs compare byte-for-byte.
func formatVertexMap[V any](m map[int64]V, format func(V) string) string {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sb strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&sb, "%d:%s ", id, format(m[id]))
	}
	return sb.String()
}

// TestSinkCountersAgreeAcrossEngines: the one sink counts what it wrote once,
// the same on every engine. After a single WordCount or TeraSort job
// RecordsWritten is the number of output records, and DiskBytesWritten — less
// the shuffle files spark and mapreduce materialise, which flink's pipelined
// exchange never writes — is the size of the output file.
func TestSinkCountersAgreeAcrossEngines(t *testing.T) {
	text := datagen.Text(21, 64<<10, 10)
	tera := datagen.TeraGen(22, 2000)
	part := TeraPartitioner(tera, 2)
	jobs := []struct {
		name string
		run  func(s *dataflow.Session) error
		recs func(out []byte) int64
	}{
		{"WordCount", func(s *dataflow.Session) error { return WordCount(s, "in", "out") },
			func(out []byte) int64 { return int64(bytes.Count(out, []byte("\n"))) }},
		{"TeraSort", func(s *dataflow.Session) error { return TeraSort(s, "in", "out", part) },
			func(out []byte) int64 { return int64(len(out) / datagen.TeraRecordSize) }},
	}
	for _, job := range jobs {
		var written [][2]int64
		for _, engine := range dataflow.Names() {
			s := paritySession(t, engine)
			if job.name == "WordCount" {
				s.FS().WriteFile("in", text)
			} else {
				s.FS().WriteFile("in", tera)
			}
			if err := job.run(s); err != nil {
				t.Fatalf("%s on %s: %v", job.name, engine, err)
			}
			f, err := s.FS().Open("out")
			if err != nil {
				t.Fatal(err)
			}
			m := s.Metrics().Snapshot()
			if m.SpillCount != 0 {
				t.Fatalf("%s on %s spilled; the test wants the sink's disk writes alone", job.name, engine)
			}
			sinkBytes := m.DiskBytesWritten
			if engine != "flink" {
				sinkBytes -= m.ShuffleBytesWritten
			}
			if want := job.recs(f.Contents()); m.RecordsWritten != want {
				t.Errorf("%s on %s: RecordsWritten = %d, want %d output records", job.name, engine, m.RecordsWritten, want)
			}
			if sinkBytes != f.Size() {
				t.Errorf("%s on %s: the sink charged %d disk bytes, the file has %d", job.name, engine, sinkBytes, f.Size())
			}
			written = append(written, [2]int64{m.RecordsWritten, sinkBytes})
		}
		if written[0] != written[1] || written[0] != written[2] {
			t.Errorf("%s: (RecordsWritten, sink bytes) per engine = %v, want all equal", job.name, written)
		}
	}
}
