package sim

import (
	"fmt"
	"math"

	"repro/internal/des"
)

// MapReduce cost model: every job is two rigidly staged phases with a full
// materialization barrier between them, mirroring the real engine in
// internal/engine/mapreduce.
//
//	Map:    job startup → read split → map CPU (+ per-task JVM launches)
//	        → spill-sort CPU → materialize map output to disk
//	Reduce: shuffle fetch → on-disk merge (write + read back) → reduce CPU
//	        → write output
//
// Nothing overlaps: unlike Spark's task waves (read ∥ compute) or Flink's
// pipeline, each phase step serializes — the structural reason the
// baseline trails both in-memory engines even on one-pass batch jobs, and
// loses badly on iterative chains that pay the whole table again per round.

// mrJob carries one job's per-node data volumes (MiB) and CPU costs
// (core-seconds per node).
type mrJob struct {
	readMiB   float64 // input read per node
	mapCPU    float64 // map function cost
	mapOutMiB float64 // materialized map output
	redCPU    float64 // reduce function + merge cost
	outMiB    float64 // final output written per node
}

// runMRJob schedules one MapReduce job on the fluid simulator and calls
// done when the reduce barrier drains (nil for fire-and-forget).
func runMRJob(r *run, label string, job mrJob, done func()) {
	spec := r.p.Spec
	cores := float64(spec.CoresPerNode)
	remote := 1 - 1/float64(spec.Nodes)
	blockMiB := float64(r.p.Conf.HDFSBlockSize) / (1 << 20)
	tasksPerNode := job.readMiB / blockMiB
	if tasksPerNode < 1 {
		tasksPerNode = 1
	}
	mapCPU := job.mapCPU + job.mapOutMiB*mrSortCPU + tasksPerNode*mrTaskOverhead
	shuffleMiB := job.mapOutMiB

	reducePhase := func() {
		r.span(fmt.Sprintf("Shuffle+Reduce(%s)", label), func(spanDone func()) {
			barrier := des.NewCounter(spec.Nodes, func() {
				spanDone()
				if done != nil {
					done()
				}
			})
			for n := range r.nodes {
				des.Seq([]des.Step{
					r.net(n, shuffleMiB*remote*(1<<20), int(cores)),
					// On-disk merge passes: fetched segments spill to local
					// disk and are read back before the reduce function runs.
					r.diskWrite(n, shuffleMiB*mrMergeSpillFrac*(1<<20)),
					r.diskRead(n, shuffleMiB*mrMergeSpillFrac*(1<<20)),
					r.cpu(n, job.redCPU, cores),
					r.diskWrite(n, job.outMiB*(1<<20)),
				}, barrier.Done)
			}
		}, nil)
	}
	r.span(fmt.Sprintf("Map(%s)", label), func(spanDone func()) {
		barrier := des.NewCounter(spec.Nodes, func() { spanDone(); reducePhase() })
		for n := range r.nodes {
			n := n
			// Modest, flat heap: nothing is cached between phases or jobs.
			r.nodes[n].UseMem(0.05 * float64(spec.MemPerNode) * 0.1)
			des.Seq([]des.Step{
				r.hold(mrJobStartup),
				// Strictly staged within the task too: read, then compute,
				// then materialize — no wave overlap, no pipelining.
				r.diskRead(n, job.readMiB*(1<<20)),
				r.cpu(n, mapCPU, cores),
				r.diskWrite(n, job.mapOutMiB*(1<<20)),
			}, barrier.Done)
		}
	}, nil)
}

// runMapReduce for Word Count: tokenize map, combine, sum reduce.
func (j WordCountJob) runMapReduce(r *run, perNodeMiB, shuffleMiB, outMiB float64) {
	runMRJob(r, "WordCount", mrJob{
		readMiB:   perNodeMiB,
		mapCPU:    perNodeMiB * wcMapCPUFlink * mrCPUFactor,
		mapOutMiB: shuffleMiB * bytesFactorWritable,
		redCPU:    perNodeMiB * wcReduceCPU * serdeFactorWritable,
		outMiB:    outMiB * bytesFactorWritable,
	}, nil)
}

// runMapReduce for Grep: the combiner collapses per-map match counts, so
// the shuffle is negligible; the cost is the staged scan plus job startup.
func (j GrepJob) runMapReduce(r *run, perNodeMiB, sel float64) {
	runMRJob(r, "Grep", mrJob{
		readMiB:   perNodeMiB,
		mapCPU:    perNodeMiB * grepCPUFlink * mrCPUFactor,
		mapOutMiB: perNodeMiB * sel * 0.01, // combined match counts
		redCPU:    perNodeMiB * sel * 0.001,
		outMiB:    0,
	}, nil)
}

// runMapReduce for Tera Sort: the full dataset is sorted, spilled,
// shuffled uncompressed and merge-sorted on disk again at the reduces.
func (j TeraSortJob) runMapReduce(r *run, perNodeMiB float64) {
	runMRJob(r, "TeraSort", mrJob{
		readMiB:   perNodeMiB,
		mapCPU:    perNodeMiB * tsMapCPUFlink * mrCPUFactor,
		mapOutMiB: perNodeMiB, // no map-output compression, unlike Spark
		redCPU:    perNodeMiB * (tsIntakeCPUFlink + tsMergeCPUFlink) * mrCPUFactor,
		outMiB:    perNodeMiB,
	}, nil)
}

// runMapReduce for graphs: Pregel-on-Hadoop as chained jobs. No graph is
// ever resident — an init job derives the vertex states, then EVERY
// superstep is an independent job that re-reads and re-parses the full
// edge list from the DFS, shuffles the messages uncompressed and writes
// the next vertex-state file back. Connected components' message volume
// shrinks as labels converge, but the per-superstep edge scan and job
// startup never do — the structural contrast with Flink's delta iteration
// (shrinking work) and Spark's cached edge RDD (no re-read).
func (j GraphJob) runMapReduce(r *run) Result {
	spec := r.p.Spec
	perNodeMiB := float64(j.SizeBytes) / float64(spec.Nodes) / (1 << 20)
	mE := j.mEdgesPerNode(r.p)
	mV := j.mVertsPerNode(r.p)
	stateMiB := mV * 1e6 * mrGraphStateBytesPerVtx / (1 << 20)
	iterEdgeCPU := mrGraphPRIterEdgeCPU
	if j.Algo == ConnComp {
		iterEdgeCPU = mrGraphCCIterEdgeCPU
	}

	var loadEndT, iterStartT float64
	loadJob := mrJob{
		readMiB:   perNodeMiB,
		mapCPU:    perNodeMiB * mrGraphParseCPU,
		mapOutMiB: stateMiB,
		redCPU:    mV * mrGraphVtxCPU,
		outMiB:    stateMiB,
	}
	runMRJob(r, "InitVertexStates", loadJob, func() {
		loadEndT = r.sim.Now()
		iterStartT = loadEndT
		runSupersteps(r, j.Iterations, func(it int, stepDone func()) {
			frac := 1.0
			if j.Algo == ConnComp {
				frac = math.Pow(ccWorksetShrink, float64(it))
			}
			iterJob := mrJob{
				readMiB:   perNodeMiB + stateMiB,
				mapCPU:    perNodeMiB*mrGraphParseCPU + mE*iterEdgeCPU*frac,
				mapOutMiB: mE * 1e6 * graphMsgBytesPerEdge * bytesFactorWritable * frac / (1 << 20),
				redCPU:    mV * mrGraphVtxCPU,
				outMiB:    stateMiB,
			}
			runMRJob(r, fmt.Sprintf("%s#%d", j.Algo, it+1), iterJob, stepDone)
		}, nil)
	})
	res := r.finish(nil)
	res.LoadSeconds = loadEndT
	res.IterSeconds = res.Seconds - iterStartT
	return res
}

// runMapReduce for K-Means: the engine has no iteration operator, so every
// iteration is an independent job that re-reads and re-parses the full
// point set from the DFS and pays job startup again — the chained-job cost
// Spark's caching and Flink's native iterations were designed to
// eliminate (Tekdogan & Cakmak's iterative-workload gap).
func (j KMeansJob) runMapReduce(r *run, perNodeMiB float64, iters int) {
	iterJob := mrJob{
		readMiB:   perNodeMiB,
		mapCPU:    perNodeMiB * (kmParseCPU + kmIterCPU) * mrCPUFactor,
		mapOutMiB: 0.1, // combined per-center sums
		redCPU:    0.1,
		outMiB:    0.1, // the new centers file
	}
	runSupersteps(r, iters, func(it int, stepDone func()) {
		runMRJob(r, fmt.Sprintf("KMeans#%d", it+1), iterJob, stepDone)
	}, nil)
}
