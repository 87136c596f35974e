// Package mapreduce is a real, executing mini-engine modeled on classic
// Hadoop MapReduce — the disk-oriented baseline against the two in-memory
// engines. It implements the architecture that makes the paper's Spark and
// Flink advantages measurable rather than asserted:
//
//   - rigid two-phase jobs: map tasks, a FULL materialization barrier, then
//     reduce tasks — nothing overlaps across the phase boundary;
//   - map outputs buffered in a bounded sort buffer that spills sorted runs
//     to the simulated DFS when full, with a final merge pass producing one
//     sorted, partitioned map-output file per task;
//   - sort-merge reduce: every reduce task fetches its partition's segment
//     from every map output, k-way merges the sorted segments and groups
//     equal keys — there is no hash path and no in-memory caching of any
//     kind;
//   - multi-job chaining for iterative workloads: each iteration is an
//     independent job whose state round-trips through the DFS, so every
//     K-Means pass re-reads the full input — exactly the cost Spark's RDD
//     caching and Flink's native iterations were designed to eliminate;
//   - Writable-style serialization (modeled by the verbose "java" strategy)
//     on every spill, shuffle and output boundary.
//
// Jobs process real data on the cluster.Runtime's per-node worker pools;
// counters and timelines feed the paper-scale simulator's calibration the
// same way the spark and flink packages do.
package mapreduce

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/metrics"
	"repro/internal/serde"
	"repro/internal/shuffle"
)

// The engine's configuration keys, following the Hadoop property names:
// core.MRReduceTasks and core.MRSortRecords.
const (
	MRReduceTasks = core.MRReduceTasks
	MRSortRecords = core.MRSortRecords
)

// Cluster is the engine entry point, playing the JobTracker/Cluster role:
// it owns the configuration, the runtime, the DFS and the job counters.
type Cluster struct {
	conf core.Config
	rt   *cluster.Runtime
	fs   *dfs.FS

	metrics  *metrics.JobMetrics
	timeline *metrics.Timeline

	// reduces and shuffleSet are resolved from the configuration once, in
	// NewCluster: every job of the cluster runs under them, so both phases
	// of a job and every job of a chain agree.
	reduces    int
	shuffleSet shuffle.Settings

	nextJob atomic.Int64
}

// NewCluster builds a cluster over a runtime and DFS, on its own copy of
// conf. A job without its own reducer count runs mapreduce.job.reduces
// reduce tasks, one per node when 0. The shuffle settings go through the
// shared shuffle core: classic Hadoop IS the sort strategy (sorted spills,
// merged segments, sort-merge reduce), with the io.sort buffer as the
// record-count spill trigger; shuffle.strategy=hash keeps segments unsorted
// and moves the sort after the reduce-side fetch. It panics with conf.Err()
// when Set recorded an unknown key or an illegal value: dataflow.Open
// returns that error instead.
func NewCluster(conf *core.Config, rt *cluster.Runtime, fs *dfs.FS) *Cluster {
	if conf == nil {
		conf = core.NewConfig()
	}
	if err := conf.Err(); err != nil {
		panic(err)
	}
	c := &Cluster{
		conf:       *conf,
		rt:         rt,
		fs:         fs,
		metrics:    &metrics.JobMetrics{},
		timeline:   metrics.NewTimeline(),
		reduces:    conf.MRReduceTasks,
		shuffleSet: shuffle.FromConf(conf, shuffle.Sort),
	}
	if c.reduces == 0 {
		c.reduces = rt.Spec().Nodes
	}
	c.shuffleSet.SpillRecs = conf.MRSortRecords
	return c
}

// Conf returns the cluster's configuration, fixed when it was built.
func (c *Cluster) Conf() core.Config { return c.conf }

// FS returns the distributed filesystem.
func (c *Cluster) FS() *dfs.FS { return c.fs }

// Runtime returns the execution substrate.
func (c *Cluster) Runtime() *cluster.Runtime { return c.rt }

// Metrics returns the job counters.
func (c *Cluster) Metrics() *metrics.JobMetrics { return c.metrics }

// Timeline returns the operator timeline.
func (c *Cluster) Timeline() *metrics.Timeline { return c.timeline }

// DefaultReduces returns the effective mapreduce.job.reduces.
func (c *Cluster) DefaultReduces() int { return c.reduces }

// Style returns the intermediate serialization strategy: Writables,
// modeled by the verbose "java" strategy.
func (c *Cluster) Style() serde.Style { return serde.Java }

// Iterate drives an iterative workload as a chain of independent jobs, the
// only iteration mechanism classic MapReduce offers: body(round) submits
// one full job per round and all cross-round state lives in the DFS. The
// per-round timeline spans make the repeated load→shuffle→reduce cost
// visible next to spark's cached loop and flink's native iteration.
func Iterate(c *Cluster, rounds int, body func(round int) error) error {
	for it := 0; it < rounds; it++ {
		end := c.timeline.StartSpan(fmt.Sprintf("ChainedJob #%d", it+1))
		err := body(it)
		end()
		if err != nil {
			return fmt.Errorf("mapreduce: chained job %d: %w", it+1, err)
		}
	}
	return nil
}
