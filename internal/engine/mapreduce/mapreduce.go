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

// Engine-internal configuration keys, following the Hadoop property names.
// They live here, not in core, because they only concern this engine (the
// same convention as flink.FlinkCombineStrategy).
const (
	// MRReduceTasks is the number of reduce tasks per job
	// (mapreduce.job.reduces). 0 derives one per node.
	MRReduceTasks = "mapreduce.job.reduces"
	// MRSortRecords is the map-side sort buffer capacity in records (the
	// io.sort.mb analog). A map task spills a sorted run every time its
	// buffer fills.
	MRSortRecords = "mapreduce.task.io.sort.records"
	// MRSerializer selects the intermediate serialization strategy;
	// Writables are modeled by the verbose "java" strategy.
	MRSerializer = "mapreduce.job.serializer"
)

// defaultSortRecords is the default spill threshold. Large enough that
// laptop-scale jobs spill only once per map unless tests shrink it.
const defaultSortRecords = 1 << 16

// Cluster is the engine entry point, playing the JobTracker/Cluster role:
// it owns the configuration, the runtime, the DFS and the job counters.
type Cluster struct {
	conf  *core.Config
	rt    *cluster.Runtime
	fs    *dfs.FS
	style serde.Style

	metrics  *metrics.JobMetrics
	timeline *metrics.Timeline

	// reduces and shuffleSet are resolved from the configuration once, in
	// NewCluster: every job of the cluster runs under them, so both phases
	// of a job and every job of a chain agree.
	reduces    int
	shuffleSet shuffle.Settings

	nextJob atomic.Int64
}

// NewCluster builds a cluster over a runtime and DFS. A job without its
// own reducer count runs mapreduce.job.reduces reduce tasks, one per node
// when unset. The shuffle settings go through the shared shuffle core:
// classic Hadoop IS the sort strategy (sorted spills, merged segments,
// sort-merge reduce), with the io.sort buffer as the record-count spill
// trigger; shuffle.strategy=hash keeps segments unsorted and moves the sort
// after the reduce-side fetch.
func NewCluster(conf *core.Config, rt *cluster.Runtime, fs *dfs.FS) *Cluster {
	if conf == nil {
		conf = core.NewConfig()
	}
	c := &Cluster{
		conf:       conf,
		rt:         rt,
		fs:         fs,
		style:      serde.ParseStyle(conf.String(MRSerializer, "java")),
		metrics:    &metrics.JobMetrics{},
		timeline:   metrics.NewTimeline(),
		reduces:    conf.Int(MRReduceTasks, 0),
		shuffleSet: shuffle.FromConf(conf, shuffle.Sort),
	}
	if c.reduces <= 0 {
		c.reduces = rt.Spec().Nodes
	}
	c.shuffleSet.SpillRecs = conf.Int(MRSortRecords, 0)
	if c.shuffleSet.SpillRecs <= 0 {
		c.shuffleSet.SpillRecs = defaultSortRecords
	}
	return c
}

// Conf returns the configuration.
func (c *Cluster) Conf() *core.Config { return c.conf }

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

// Style returns the configured intermediate serialization strategy.
func (c *Cluster) Style() serde.Style { return c.style }

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
