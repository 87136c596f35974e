package sim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/des"
	"repro/internal/memory"
)

// GraphAlgo selects the graph workload.
type GraphAlgo int

// Graph algorithms.
const (
	PageRank GraphAlgo = iota
	ConnComp
)

// String implements fmt.Stringer.
func (a GraphAlgo) String() string {
	if a == ConnComp {
		return "ConnectedComponents"
	}
	return "PageRank"
}

// GraphJob simulates Page Rank / Connected Components on one of the
// paper's graph datasets (Table IV).
type GraphJob struct {
	Algo       GraphAlgo
	Graph      datagen.GraphSpec
	SizeBytes  core.ByteSize // on-disk edge list size (Table IV's Size)
	Iterations int
	// BulkCC forces Flink CC onto bulk iterations (the paper's
	// delta-vs-bulk assessment); ignored for Spark and PageRank.
	BulkCC bool
}

// Name implements Job.
func (j GraphJob) Name() string { return j.Algo.String() }

// Run implements Job.
func (j GraphJob) Run(p Params) Result {
	r := newRun(p, j.Name())
	if p.Engine == MapReduce {
		return j.runMapReduce(r)
	}
	if p.Engine == Flink {
		if err := j.flinkMemoryCheck(p); err != nil {
			return r.finish(err)
		}
		return j.runFlink(r)
	}
	if err := j.sparkMemoryCheck(p); err != nil {
		return r.finish(err)
	}
	return j.runSpark(r)
}

// mEdgesPerNode returns millions of edges per node.
func (j GraphJob) mEdgesPerNode(p Params) float64 {
	return float64(j.Graph.Edges) / float64(p.Spec.Nodes) / 1e6
}

// mVertsPerNode returns millions of vertices per node.
func (j GraphJob) mVertsPerNode(p Params) float64 {
	return float64(j.Graph.Vertices) / float64(p.Spec.Nodes) / 1e6
}

// flinkMemoryCheck applies the Table VII failure rule: the CoGroup /
// delta-iteration solution set must hold the node's share of the graph in
// managed memory — hash-table overhead times raw bytes plus each active
// slot's CoGroup buffers. Reducing parallelism (fewer slots) shrinks the
// need, which is how the paper got the 97-node run through at ¾ of the
// cores.
func (j GraphJob) flinkMemoryCheck(p Params) error {
	managed := flinkManaged(p)
	slots := j.flinkSlotsPerNode(p)
	perNodeBytes := float64(j.SizeBytes)/float64(p.Spec.Nodes) +
		float64(j.Graph.Vertices)/float64(p.Spec.Nodes)*16
	need := perNodeBytes * (flinkCoGroupOverhead + float64(slots)*flinkPerSlotFactor)
	if need > managed {
		return fmt.Errorf("sim: flink CoGroup solution set needs %s per node, managed memory is %s (%d slots): %w",
			core.ByteSize(need), core.ByteSize(managed), slots, memory.ErrSolutionSetTooLarge)
	}
	return nil
}

// memPressured reports whether the flink run operates near the managed
// memory limit (more than half the pool taken by the solution set) — the
// regime where reduced parallelism costs throughput.
func (j GraphJob) memPressured(p Params) bool {
	managed := flinkManaged(p)
	slots := j.flinkSlotsPerNode(p)
	perNodeBytes := float64(j.SizeBytes)/float64(p.Spec.Nodes) +
		float64(j.Graph.Vertices)/float64(p.Spec.Nodes)*16
	need := perNodeBytes * (flinkCoGroupOverhead + float64(slots)*flinkPerSlotFactor)
	return need > 0.5*managed
}

// flinkManaged is a node's managed memory, taskmanager.memory ×
// memory.fraction, as flink.NewEnv sizes it.
func flinkManaged(p Params) float64 {
	return float64(p.Conf.FlinkTaskManagerMemory) * p.Conf.FlinkMemoryFraction
}

// flinkSlotsPerNode derives the active slots from the configured
// parallelism (parallelism / nodes), defaulting to all cores.
func (j GraphJob) flinkSlotsPerNode(p Params) int {
	par := p.Conf.FlinkDefaultParallelism
	if par == 0 {
		return p.Spec.CoresPerNode
	}
	slots := int(math.Ceil(float64(par) / float64(p.Spec.Nodes)))
	if slots > p.Spec.CoresPerNode {
		slots = p.Spec.CoresPerNode
	}
	if slots < 1 {
		slots = 1
	}
	return slots
}

// sparkMemoryCheck applies the paper's Spark large-graph rule: the graph
// load stage dies unless edge partitions are small enough that the
// concurrently processed partitions (slots × partition bytes × JVM object
// overhead) fit the executor heap.
func (j GraphJob) sparkMemoryCheck(p Params) error {
	heap := float64(p.Conf.SparkExecutorMemory)
	edgeParts := p.Conf.SparkEdgePartitions
	if edgeParts == 0 {
		edgeParts = p.Spec.TotalCores()
	}
	partBytes := float64(j.SizeBytes) / float64(edgeParts)
	concurrent := partBytes * float64(p.Spec.CoresPerNode) * sparkObjectOverhead
	if concurrent > heap*sparkGraphOccupancy {
		return fmt.Errorf("sim: spark graph load OOM: %d edge partitions of %s, %s concurrently on a %s heap (double spark.edge.partitions)",
			edgeParts, core.ByteSize(partBytes), core.ByteSize(concurrent), core.ByteSize(heap))
	}
	return nil
}

// runFlink: count-vertices pre-job (PageRank only) and graph load, then
// the native iteration. Delta CC shrinks the workset geometrically;
// PageRank touches all edges every superstep. No disk is used during PR
// iterations and memory stays constant — the Figure 16 contrasts.
func (j GraphJob) runFlink(r *run) Result {
	p := r.p
	spec := p.Spec
	slots := float64(j.flinkSlotsPerNode(p))
	cores := float64(spec.CoresPerNode)
	mE := j.mEdgesPerNode(p)
	perNodeMiB := float64(j.SizeBytes) / float64(spec.Nodes) / (1 << 20)
	remote := 1 - 1/float64(spec.Nodes)
	iters := j.Iterations

	// Load wall times follow K×√(M edges/node). The fitted K constants
	// absorb the paper's typical slot settings; the slot deficit only
	// hurts when the job runs memory-pressured (the 97-node large-graph
	// regime where parallelism was cut to fit the CoGroup — "Flink is
	// less efficient because the parallelism is reduced").
	sqrtE := math.Sqrt(mE)
	penalty := 1.0
	if j.memPressured(p) && slots < cores {
		penalty = cores / slots
	}
	var loadWall, cvWall float64
	switch j.Algo {
	case PageRank:
		cvWall = flinkLoadKCV * sqrtE * penalty
		loadWall = flinkLoadKPR * sqrtE * penalty
	default:
		loadWall = flinkLoadKCC * sqrtE * penalty
	}
	iterEdgeCPU := flinkPRIterEdgeCPU * penalty
	if j.Algo == ConnComp {
		iterEdgeCPU = flinkCCIterEdgeCPU * penalty
	}

	var loadEndT, iterStartT float64
	iterPhase := func() {
		iterStartT = r.sim.Now()
		label := "IT=Iterations (Bulk)"
		if j.Algo == ConnComp && !j.BulkCC {
			label = "DI=DeltaIterations"
		}
		r.span(label, func(spanDone func()) {
			runSupersteps(r, iters, func(it int, stepDone func()) {
				frac := 1.0
				if j.Algo == ConnComp && !j.BulkCC {
					frac = math.Pow(ccWorksetShrink, float64(it))
				}
				cpu := mE * iterEdgeCPU * frac
				msgs := mE * 1e6 * graphMsgBytesPerEdge * frac * remote
				b := des.NewCounter(spec.Nodes, stepDone)
				for n := range r.nodes {
					n := n
					des.Seq([]des.Step{func(done func()) {
						// Transfers overlap compute (pipelined superstep);
						// CC's first supersteps still touch disk (fig 17)
						// through sorter spills.
						steps := []des.Step{
							r.net(n, msgs, int(slots)),
							r.cpu(n, cpu, cores),
						}
						if j.Algo == ConnComp && it < 2 {
							steps = append(steps, r.diskWrite(n, perNodeMiB*0.2*(1<<20)))
						}
						des.Par(steps, done)
					}}, b.Done)
				}
			}, spanDone)
		}, nil)
	}

	label := "LD=load graph (CoGroup)"
	if j.Algo == PageRank {
		label = "CV=count vertices | LD=load graph"
	}
	r.span(label, func(spanDone func()) {
		barrier := des.NewCounter(spec.Nodes, func() {
			loadEndT = r.sim.Now()
			spanDone()
			iterPhase()
		})
		for n := range r.nodes {
			n := n
			r.nodes[n].UseMem(0.4 * float64(spec.MemPerNode) * 0.1)
			var steps []des.Step
			steps = append(steps, r.hold(flinkDeployDelay))
			if j.Algo == PageRank {
				// The count-vertices job reads the dataset once more.
				steps = append(steps, func(done func()) {
					des.Par([]des.Step{
						r.diskRead(n, perNodeMiB*(1<<20)),
						r.cpu(n, cvWall*cores, cores),
					}, done)
				})
			}
			steps = append(steps, func(done func()) {
				des.Par([]des.Step{
					r.diskRead(n, perNodeMiB*(1<<20)),
					r.cpu(n, loadWall*cores, cores),
					r.net(n, perNodeMiB*remote*0.5*(1<<20), int(slots)),
				}, done)
			})
			des.Seq(steps, barrier.Done)
		}
	}, nil)

	res := r.finish(nil)
	res.LoadSeconds = loadEndT
	res.IterSeconds = res.Seconds - iterStartT
	return res
}

// runSpark: load stage (read + partition shuffle + cache), then
// loop-unrolled supersteps: every superstep joins the FULL vertex set with
// the messages across three scheduled stages, materializes intermediate
// state to disk, and grows the heap — Figure 16's Spark panels.
func (j GraphJob) runSpark(r *run) Result {
	p := r.p
	spec := p.Spec
	cores := float64(spec.CoresPerNode)
	mE := j.mEdgesPerNode(p)
	mV := j.mVertsPerNode(p)
	perNodeMiB := float64(j.SizeBytes) / float64(spec.Nodes) / (1 << 20)
	remote := 1 - 1/float64(spec.Nodes)
	iters := j.Iterations

	loadK := sparkLoadKPR
	iterEdgeCPU := sparkPRIterEdgeCPU
	if j.Algo == ConnComp {
		loadK = sparkLoadKCC
		iterEdgeCPU = sparkCCIterEdgeCPU
	}
	// spark.edge.partitions sensitivity (Section VI-E): increasing it
	// means more files to handle, decreasing it means inefficient
	// resource usage — up to ~50% at 6× cores on the medium graph.
	edgeParts := p.Conf.SparkEdgePartitions
	if edgeParts == 0 {
		edgeParts = spec.TotalCores()
	}
	partsPerCore := float64(edgeParts) / float64(spec.TotalCores())
	epPenalty := 1.0
	switch {
	case partsPerCore < 0.5:
		epPenalty = 1 + 0.4*(0.5-partsPerCore)/0.5 // too few: idle cores
	case partsPerCore > 2:
		epPenalty = 1 + 0.125*(partsPerCore-2) // too many: more files to handle
	}
	loadWall := loadK * math.Sqrt(mE) * epPenalty
	var loadEndT, iterStartT float64

	iterPhase := func() {
		iterStartT = r.sim.Now()
		r.span("MF=mapPartitions->foreachPartition ×iters", func(spanDone func()) {
			runSupersteps(r, iters, func(it int, stepDone func()) {
				activeFrac := 1.0
				if j.Algo == ConnComp {
					activeFrac = math.Pow(ccWorksetShrink, float64(it))
				}
				cpu := mE*iterEdgeCPU*activeFrac + mV*sparkIterVtxCPU
				msgs := mE * 1e6 * graphMsgBytesPerEdge * activeFrac * remote * tsSparkCompress
				ranks := mV * 1e6 * sparkRankBytesPerVtx
				b := des.NewCounter(spec.Nodes, stepDone)
				for n := range r.nodes {
					n := n
					r.nodes[n].UseMem(sparkIterOccupancyStep * float64(spec.MemPerNode) * 0.1)
					des.Seq([]des.Step{
						r.hold(3 * sparkStageLatency),
						func(done func()) {
							des.Par([]des.Step{
								r.net(n, msgs, int(cores)),
								r.cpu(n, cpu, cores),
								r.diskWrite(n, ranks), // materialized intermediate ranks
							}, done)
						},
					}, b.Done)
				}
			}, spanDone)
		}, nil)
	}

	r.span("LD=Map->Coalesce->Load Graph", func(spanDone func()) {
		barrier := des.NewCounter(spec.Nodes, func() {
			loadEndT = r.sim.Now()
			spanDone()
			iterPhase()
		})
		for n := range r.nodes {
			n := n
			r.nodes[n].UseMem(0.4 * float64(spec.MemPerNode) * 0.1)
			des.Seq([]des.Step{
				r.hold(2 * sparkStageLatency),
				func(done func()) {
					des.Par([]des.Step{
						r.diskRead(n, perNodeMiB*(1<<20)),
						r.cpu(n, loadWall*cores, cores),
						r.net(n, perNodeMiB*remote*0.5*bytesFactorJava*(1<<20), int(cores)),
					}, done)
				},
			}, barrier.Done)
		}
	}, nil)

	res := r.finish(nil)
	res.LoadSeconds = loadEndT
	res.IterSeconds = res.Seconds - iterStartT
	return res
}
