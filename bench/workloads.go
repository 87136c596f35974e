package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	_ "repro/internal/dataflow/backend/flinkexec"
	_ "repro/internal/dataflow/backend/mrexec"
	_ "repro/internal/dataflow/backend/sparkexec"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/engine/mapreduce"
	"repro/internal/workloads"
)

// engines is the fixed engine order of every report; the timed rounds
// rotate the starting engine so machine drift hits all three equally.
var engines = []string{"spark", "flink", "mapreduce"}

// workloadNames are fixed: later issues and BENCHMARK.json refer to them.
var workloadNames = []string{"wordcount", "grep", "terasort", "pagerank"}

// Engine parallelism is pinned at 2 (the reference box has 2 vCPUs) and the
// cluster at 2 nodes × 8 slots: flink's pipelined gang needs a slot per
// subtask of every chained operator, and a blocked goroutine costs no CPU.
var clusterSpec = cluster.Spec{Nodes: 2, CoresPerNode: 8, MemPerNode: 4 * core.GB, DiskSeqMiBps: 200, NetMiBps: 200}

const (
	parallelism  = 2
	dfsBlockSize = 4 * core.MB
	prSupersteps = 5
)

// grepPatterns are words of the text generator's fixed vocabulary, one grep
// job each, matching from 58 % of the lines down to 0.04 %. They do not come
// from the seed: the matching share decides how many records leave the
// filter, and a share that moved with the seed would move every grep metric
// with it (datagen.Words(seed, 8) matched between 20 % and 98 %).
var grepPatterns = []string{"the", "enre", "miku", "reen", "kukure", "shikuto", "vadalor", "dapobare"}

// size is the input size of one workload at one scale.
type size struct {
	textBytes   int // wordcount, grep
	teraRecords int
	vertices    int64
	edges       int64
}

// Sizes were chosen by timing the seed state on a 2-vCPU box so that one
// measured job lasts 0.3–3 s per engine: small enough that a run holds
// several rounds, large enough that fixed per-job cost does not dominate
// the three single-job workloads (it is what pagerank measures).
var sizes = map[string]map[string]size{
	"full": {
		"wordcount": {textBytes: 16 << 20},
		"grep":      {textBytes: 64 << 20},
		"terasort":  {teraRecords: 300_000},
		"pagerank":  {vertices: 5_000, edges: 40_000},
	},
	// tiny keeps the smoke test inside tier-1's budget; its timings mean
	// nothing.
	"tiny": {
		"wordcount": {textBytes: 64 << 10},
		"grep":      {textBytes: 128 << 10},
		"terasort":  {teraRecords: 2_000},
		"pagerank":  {vertices: 64, edges: 300},
	},
	// fixed is the ~1 000-record input whose job time is all fixed cost.
	"fixed": {
		"wordcount": {textBytes: 56 << 10},
		"grep":      {textBytes: 7 << 10},
		"terasort":  {teraRecords: 1_000},
		"pagerank":  {vertices: 100, edges: 200},
	},
}

// instance is one workload with its inputs generated and its reference
// result computed. The engines never see the seed, only these bytes.
type instance struct {
	name string
	// records is the per-trial record count every *_per_rec metric divides
	// by: input lines (wordcount), lines × patterns (grep), 100-byte
	// records (terasort), edges × supersteps (pagerank).
	records    int64
	jobs       int // jobs one trial submits (grep: one per pattern)
	inputBytes int64
	inputSHA   string

	// load writes the input into a fresh session's DFS (no-op for
	// pagerank, whose edges enter through FromSlice inside the job).
	load func(s *dataflow.Session)
	// run is the timed region: the action call(s) only.
	run func(s *dataflow.Session) (any, error)
	// check verifies run's result against the single-threaded reference
	// after the clock has stopped and returns how many jobs were wrong.
	check func(s *dataflow.Session, out any) (failed int, err error)
	// replay pushes the workload's records through each shared layer
	// single-threaded, for the traced run (see replay.go).
	replay func(root *span, rep *report) (*layerCPU, error)
}

// newInstance generates workload name at the given size from seed.
func newInstance(name string, seed int64, sz size) (*instance, error) {
	switch name {
	case "wordcount":
		text := datagen.Text(seed, sz.textBytes, 10)
		want := refWordCount(text)
		inst := &instance{
			name: name, jobs: 1,
			records:    int64(bytes.Count(text, []byte("\n"))),
			inputBytes: int64(len(text)), inputSHA: sha(text),
			load: func(s *dataflow.Session) { s.FS().WriteFile("in", text) },
			run: func(s *dataflow.Session) (any, error) {
				return nil, workloads.WordCount(s, "in", "out")
			},
			check: func(s *dataflow.Session, _ any) (int, error) {
				return failedIf(checkWordCount(s.FS(), "out", want))
			},
		}
		inst.replay = func(root *span, rep *report) (*layerCPU, error) {
			return replayWordCount(root, rep, inst, text)
		}
		return inst, nil
	case "grep":
		text := datagen.Text(seed, sz.textBytes, 10)
		want := refGrep(text, grepPatterns)
		inst := &instance{
			name: name, jobs: len(grepPatterns),
			records:    int64(bytes.Count(text, []byte("\n"))) * int64(len(grepPatterns)),
			inputBytes: int64(len(text)), inputSHA: sha(text),
			load: func(s *dataflow.Session) { s.FS().WriteFile("in", text) },
			run: func(s *dataflow.Session) (any, error) {
				got := make([]int64, len(grepPatterns))
				for i, p := range grepPatterns {
					n, err := workloads.Grep(s, "in", p)
					if err != nil {
						return got, err
					}
					got[i] = n
				}
				return got, nil
			},
			check: func(_ *dataflow.Session, out any) (int, error) {
				return checkGrep(out.([]int64), want)
			},
		}
		inst.replay = func(root *span, rep *report) (*layerCPU, error) {
			return replayGrep(root, rep, inst, text, grepPatterns[0])
		}
		return inst, nil
	case "terasort":
		data := datagen.TeraGen(seed, sz.teraRecords)
		part := workloads.TeraPartitioner(data, parallelism)
		want := teraChecksum(data)
		inst := &instance{
			name: name, jobs: 1,
			records:    int64(sz.teraRecords),
			inputBytes: int64(len(data)), inputSHA: sha(data),
			load: func(s *dataflow.Session) { s.FS().WriteFile("in", data) },
			run: func(s *dataflow.Session) (any, error) {
				return nil, workloads.TeraSort(s, "in", "out", part)
			},
			check: func(s *dataflow.Session, _ any) (int, error) {
				return failedIf(checkTeraSort(s.FS(), "out", sz.teraRecords, want))
			},
		}
		inst.replay = func(root *span, rep *report) (*layerCPU, error) {
			return replayTeraSort(root, rep, inst, data, part)
		}
		return inst, nil
	case "pagerank":
		edges := datagen.RMAT(seed, datagen.GraphSpec{Name: name, Vertices: sz.vertices, Edges: sz.edges})
		want := refPageRank(edges, prSupersteps)
		raw := make([]byte, 0, 16*len(edges))
		for _, e := range edges {
			raw = binary.LittleEndian.AppendUint64(raw, uint64(e.Src))
			raw = binary.LittleEndian.AppendUint64(raw, uint64(e.Dst))
		}
		return &instance{
			name: name, jobs: 1,
			records:    int64(len(edges)) * prSupersteps,
			inputBytes: int64(len(raw)), inputSHA: sha(raw),
			load: func(*dataflow.Session) {},
			run: func(s *dataflow.Session) (any, error) {
				ranks, _, err := workloads.PageRank(s, edges, prSupersteps)
				return ranks, err
			},
			check: func(_ *dataflow.Session, out any) (int, error) {
				return failedIf(checkPageRank(out.(map[int64]float64), want))
			},
			replay: func(root *span, rep *report) (*layerCPU, error) {
				return replayPageRank(root, rep, edges)
			},
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// failedIf turns a single job's verification error into a failed-job count.
func failedIf(err error) (int, error) {
	if err != nil {
		return 1, err
	}
	return 0, nil
}

// openSession builds one engine's session over a fresh runtime and a fresh
// DFS at the benchmark's fixed settings: no planner, every toggle at its
// default, memory large enough that nothing spills for lack of it.
func openSession(engine string) (*dataflow.Session, error) {
	rt, err := cluster.NewRuntime(clusterSpec, clusterSpec.CoresPerNode)
	if err != nil {
		return nil, err
	}
	conf := core.NewConfig().
		SetInt(core.SparkDefaultParallelism, parallelism).
		SetInt(core.FlinkDefaultParallelism, parallelism).
		SetInt(mapreduce.MRReduceTasks, parallelism).
		SetBytes(core.SparkExecutorMemory, 2*core.GB).
		SetBytes(core.FlinkTaskManagerMemory, core.GB)
	return dataflow.Open(engine, dataflow.WithConfig(conf), dataflow.WithRuntime(rt),
		dataflow.WithFS(dfs.New(clusterSpec.Nodes, dfsBlockSize, 1)))
}
