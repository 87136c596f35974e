package sim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/shuffle"
)

// This file is the queryable per-stage cost API the static planner uses
// (internal/planner): analytic estimates of the REAL mini-engines'
// wall-clock for one plan × one physical configuration, answerable in
// microseconds — no discrete-event run, no whole-figure replay.
//
// Two cost models live in this package and they answer different
// questions. The des-based figure models (batch.go, terasort.go, …) replay
// the PAPER's JVM engines at cluster scale and are calibrated against the
// paper's figures. Estimate predicts the repo's own Go mini-engines at
// laptop scale — the engines the planner actually drives — and its
// constants are calibrated against measured sweeps of those engines
// (the ext6/ext10 experiment families). Both share the mechanistic
// structure: staged barriers vs pipelines, hash vs sort shuffles,
// per-task overheads, explicit disk/net terms from the cluster spec.
//
// Constants follow calibrate.go's provenance discipline:
//   - [ANCHOR ext10] fitted against the ext10 probe sweep on the real
//     engines (2 nodes × 8 cores, WordCount 192 KB-768 KB, TeraSort
//     4k-16k records), then validated on the other cells without
//     refitting. `make calibrate` re-runs that sweep and prints every cell
//     beside Estimate with its residual, and each configuration's fixed
//     part and per-MiB slope; a constant's comment names the rows it is
//     read from. The slopes in that table include the I/O terms below
//     (0.0065 s/MiB on WordCount, 0.004 on TeraSort at the probe's spec).
//     The numbers quoted are per-cell medians over six sweeps of the state
//     in which the shuffle core folds map-side combines on arrival; one
//     sweep scatters ±10 % around them (a 768 KiB WordCount cell: ±3 ms).
//     The aggregate constants of all three engines are from those sweeps
//     (read while core.HashKey still hashed every WordCount combine), so
//     is everything spark and mapreduce, and flink's fixed part (re-read after input
//     splits moved into the tasks that consume them: mean intercept 1.45).
//     Flink's aggregate, Sort-shape and channel constants are per-cell
//     medians over six sweeps of that later state, the one engine whose
//     |est/meas − 1| median had left 0.25 (0.27 over those sweeps, 0.20
//     with the re-read constants; three sweeps taken while the box ran a
//     quarter slower read 0.36 and 0.31); spark (0.16) and mapreduce
//     (0.10) were inside it and keep their constants. The three Sort-shape
//     constants were scaled once more when output partitions came to be
//     written inside tasks (TeraSort cells had moved to 1.3-2.3× under the
//     estimate; after it spark 0.10-0.19, flink 0.16-0.20, mapreduce
//     0.11-0.20 over two sweeps). Flink's aggregate, sorted-aggregate,
//     channel and cardinality constants were re-read once more when its
//     GroupCombine and GroupReduce moved into the shuffle core's combine
//     table (each constant's comment has the rows): in six sweeps alternated
//     with the state before, on a box a tenth faster than the constants'
//     own session, its |est/meas − 1| median over per-cell medians is 0.20
//     against 0.21 before the change (0.66 with the old constants); spark
//     and mapreduce are not on the changed path.
//   - [MECH] structural, not fitted.
const (
	// Fixed part of a job's cost line. [ANCHOR ext10] mean intercept of an
	// engine's eight size sweeps, and never under 1 ms — one rule for all
	// three, because at these sizes the fixed part decides between engines:
	// spark 1.7…2.8 ms on WordCount and -0.6…0.8 on TeraSort, mean 1.1;
	// flink 2.3…5.2 and -1.2…-0.7, mean 1.5; mapreduce -1.0…1.6 over all
	// eight, mean 0.1, which the floor lifts to 1. The floor is the
	// resolution of the fit: an intercept is a two-point extrapolation that
	// scatters ±1 ms between rows of one engine, and it is not job overhead
	// — a 20-record TeraSort or a 1 KiB WordCount measures 0.03-0.16 ms on
	// every engine and configuration alike — but the curvature of the sweep
	// below its smallest size. Even at half a millisecond mapreduce takes a
	// 192 KiB TeraSort from spark/sort, where it measures third: flink
	// 1.8-1.95 ms, spark/sort/p=2 2.46, mapreduce/sort/p=2 2.67 (medians of
	// five best-of-7 sweeps).
	// With flink's GroupCombine in the shuffle core's table its WordCount
	// intercepts read 3.2, 2.9, 2.2, 3.2 → 2.2, 2.6, 1.6, 2.5 ms (eight sweeps
	// alternated with the state before; 3.5, 2.4, 2.1, 3.0 → 1.6, 2.0, 1.8,
	// 2.3 in six more) and its TeraSort ones stayed at -0.1…-0.6: the mean of
	// the eight moved 1.2 → 0.95 and 1.26 → 0.8 in a session a tenth faster
	// than the one the 1.5 was read in, which puts the rule's value at 1.0-1.2
	// — inside the ±1 ms an intercept scatters by. Kept: with 1.5 the 192 KiB
	// WordCount cells read 0.86-0.98 of the measurement, with 1.2 0.80-0.90.
	estFixedSpark = 0.001
	estFixedMR    = 0.001
	estFixedFlink = 0.0015

	// Aggregate-shape CPU, wall-seconds per input MiB at 16 busy slots.
	// [ANCHOR ext10] WordCount slope per engine less I/O: spark the mean of
	// its two hash slopes (0.0293, 0.0263), mapreduce its hash/p=2 slope
	// (0.0767), flink its hash/p=2 slope less two channels' worth of
	// estFlinkChanCPU.
	//
	// Re-read when fused chains came to stream into their consumers, in six
	// sweeps alternated with the state before (per-cell medians, before →
	// after). At the probe's sizes a task's map output was 1.5 MB at most —
	// gathered in cache, without a collection — so the halving the repo
	// benchmark shows at 4 MiB a task is not in these rows: spark's hash
	// slopes 0.0267 → 0.0263 and 0.0219 → 0.0222, mapreduce's hash/p=2
	// 0.0726 → 0.0718, both kept. Flink's per-split accumulate-then-push is
	// what it had in place of operator-to-operator pushes, and all four of
	// its slopes fell: hash 0.0215 → 0.0163 and 0.0246 → 0.0205, sort 0.0218
	// → 0.0181 and 0.0250 → 0.0214; the constant is the new hash/p=2 slope
	// by the rule above (the old one, 0.0135 by the same sweeps, was 0.013).
	// The sort rows moved too, through the normalized-key sort: spark's to
	// 0.88 and 0.97 of before (inside estAggSortCPU's resolution, kept),
	// mapreduce's to 0.78 and 0.83 (0.0636 → 0.0496, 0.0554 → 0.0461) —
	// re-fitted, see estAggSortMR.
	//
	// Re-read for flink alone when its GroupCombine and GroupReduce came to
	// fold in the shuffle core's table (no private map[K]T, no per-record
	// shared counter) and its sorted exchange to order runs on normalized
	// eight-byte key hashes: eight sweeps alternated with the state before,
	// per-cell medians, before → after. All four of its WordCount slopes
	// fell to 0.63-0.64 of before — hash 0.0145 → 0.0093 and 0.0198 → 0.0128,
	// sort 0.0175 → 0.0112 and 0.0212 → 0.0135 — in a session whose flink
	// rows ran a tenth under the model to begin with, so the ratio is applied
	// to the model's slopes (0.0165, 0.0210, 0.0190, 0.0235 → 0.0106, 0.0134,
	// 0.0122, 0.0150) and the constants solved from those by the rules above:
	// estFlinkChanCPU (0.0134 - 0.0106) / 6, this one 0.0106 less I/O less
	// two channels, estAggSortFlink the sort rows less the hash rows. Spark's
	// and mapreduce's rows are not on the changed path and keep theirs.
	estAggCPUSpark = 0.021
	estAggCPUMR    = 0.070
	estAggCPUFlink = 0.0031

	// What flink's Scan and Iterate shapes are derived from: its aggregate
	// slope as it stood before the combine moved (0.0085). The sweep covers
	// neither shape, a scan has no combine to get cheaper and an iteration's
	// cost is its map, so both keep the estimate they had. [MECH]
	estMapCPUFlink = 0.0085

	// Sort-shape CPU (map + sort + merge + sink pipeline), same units.
	// [ANCHOR ext10] TeraSort sort-strategy slopes per engine less I/O.
	// With the sink still a serial encode loop on the driver they were spark
	// 0.0102 and 0.0103, mapreduce 0.0130 and 0.0118, flink 0.0102 and
	// 0.0101; with output partitions encoded inside the tasks that produce
	// them the same rows measure, in six sweeps alternated with that earlier
	// state, 0.74 and 0.81 of it on spark, 0.80 and 0.88 on mapreduce, 0.61
	// and 0.63 on flink (whose sorted partition reaches the sink as one
	// batch). The constants are the earlier slopes times those ratios — the
	// box ran a tenth slower than when the other constants were read, so
	// the ratio carries over and the absolute slopes do not.
	// The packed radix run sorter under all three does not move these rows:
	// a 16 000-record TeraSort sorts segments of 2 000-8 000 entries, a
	// millisecond's work before and after. Sixty isolated runs a cell, three
	// alternations with the state before, medians before → after: spark
	// sort/p=2 13.1 → 12.4 ms, flink hash/p=2 10.7 → 10.7 and sort/p=2 11.6
	// → 10.7, mapreduce sort/p=2 14.4 → 13.8 and sort/p=8 13.8 → 13.0, every
	// cell's quartiles 2-4 ms apart; in eight alternated sweeps the six
	// sort-strategy slopes read 0.91-1.24 of before. Kept. (At 150 000
	// records a task the repo benchmark's TeraSort is a fifth faster on
	// every engine; like the aggregate rows above, that is outside the
	// probe's sizes.)
	// Re-read when a fetched block came to be decoded through one copy
	// with its strings as views, and a sink's parts to be the output file
	// with no join on the driver: three sweeps alternated with the state
	// before, per-cell medians of the measured sort-strategy slopes, before
	// → after in s/MiB: spark p=2 0.0075 → 0.0063 and p=8 0.0070 → 0.0072,
	// flink 0.0048 → 0.0038 and 0.0040 → 0.0038, mapreduce 0.0059 → 0.0067
	// and 0.0070 → 0.0071 — 0.79-1.14 of before, inside the scatter of one
	// configuration's own three readings (up to 0.004 apart). Kept.
	estSortCPUSpark = 0.004
	estSortCPUMR    = 0.0065
	estSortCPUFlink = 0.002

	// Scan-shape CPU: no shuffle, a filter/count pass, as a fraction of the
	// slope the engine's aggregate map side is modelled with. It stood at 0.5
	// on a [MECH] guess (no combine, no pair lifting) and had never been read
	// off the engines. Hand-timed Grep on the ext10 testbed (16 KiB blocks,
	// parallelism 2, 192 and 768 KiB of text, median of 61 runs a cell), with
	// the file sources streaming views of the stored file: spark 0.25 → 1.02
	// ms, flink 0.18 → 0.61, mapreduce 0.57 → 2.48, i.e. slopes of 0.0014,
	// 0.0008 and 0.0034 s/MiB — 0.067, 0.094 and 0.049 of estAggCPUSpark,
	// estMapCPUFlink and estAggCPUMR. (With a split still copied into an
	// arena, counted and sliced before it was filtered the same cells gave
	// 0.0018, 0.0016 and 0.0044: 0.086, 0.19, 0.063.) One factor for the
	// three, as before. What is left of the gap is not this constant's: the
	// model's read term alone (≈ 0.0025 s/MiB on this spec) is above every
	// measured slope — the in-memory DFS has no disk to wait for — and its
	// fixed 1-1.5 ms is above every small cell, so the estimates read 1.7,
	// 2.1, 2.4 → 4.0, 3.8, 6.6 ms, 3-6× the 768 KiB measurements where they
	// were 9-12×, with flink and spark a fixed part's scatter apart as they
	// are measured to be.
	estScanFactor = 0.07

	// Strategy asymmetries. [ANCHOR ext10]:
	//   - an Aggregate under the sort strategy: + estAggSort* per input
	//     MiB over the engine's hash path;
	//   - a Sort plan under the hash strategy loses the map-side order and
	//     pays a full reduce-side re-sort: + estResort* per shuffled MiB.
	// Every writer now folds a combined record into its key's entry as it
	// arrives, so the sort writer no longer buffers and regroups an
	// aggregate's input (that was Spark's + 0.038) and holds one entry per
	// key like the hash writer does. Spark's sort path comes out just under
	// its hash path (sort minus hash slope: -0.0054 at p=2, -0.0026 at
	// p=8); Flink's sorted exchange just over (+0.0042, +0.0007).
	// MapReduce's is read from its 192 KiB rows, the wave size of
	// calibrate's WC-unique rows, where sort and hash/p=2 measure level (14.1, 13.75
	// against 14.1 ms). At 768 KiB its sort rows run 10 % under hash/p=2
	// and 6 % under hash/p=8 — inside hash/p=8's quartile distance over the
	// six sweeps (49-56.5 ms) — a crossing one slope cannot carry; the
	// model reads those two cells 10-15 % high.
	// Since the normalized-key sort compares 8-byte prefixes, MapReduce's
	// sort rows measure UNDER its hash rows at every size, parallelism and
	// cardinality (per-cell medians of six sweeps — 192 KiB: 10.6 and 10.35
	// ms against 12.8 and 11.35; 768 KiB: 38.4 and 36.65 against 52.95 and
	// 44.25; unique keys 47.2 and 51.65 against 62.15 and 52.9), so the
	// level-at-192-KiB reading above no longer holds and estAggSortMR follows
	// the rule Spark's constant has: sort slope minus hash/p=2 slope, 0.0496
	// - 0.0718 at p=2 and 0.0461 - 0.0718 at p=8 (three later sweeps: sort
	// 0.0496 and 0.0491), mean -0.024. With it the sort cells read 11.0 ms
	// at 192 KiB, 40.5 at 768 KiB and 49.5 / 51.9 on unique keys — within 5 %
	// where they read 1.45-1.6× high. MapReduce's static choice for an
	// aggregate is now sort at every cardinality: the hash → sort flip at
	// high cardinality is gone from the measurement, so it is gone from the
	// model (TestEstimateCardinality).
	// Since the sort writer cuts its runs with the packed radix sorter,
	// MapReduce's sort rows fell again and nothing else on WordCount moved:
	// in eight sweeps alternated with the state before (per-cell medians,
	// before → after) its sort slopes read 0.0590 → 0.0513 and 0.0561 →
	// 0.0467, 0.87 and 0.83 of before, in a session whose MapReduce WordCount
	// rows ran a fifth slower than when the constants above were read — so
	// the ratio carries over, not the slopes: 0.0496 × 0.87 - 0.0718 and
	// 0.0461 × 0.83 - 0.0718, mean -0.031. (Forty isolated runs
	// of the 768 KiB sort/p=2 cell, three alternations: median 46.3 → 37.4
	// ms, 0.81; the hash/p=2 cell beside it 68.6 → 66.2, level.) Spark's and
	// Flink's sort rows ran 0.96-1.07 and 0.92-1.24 of before with no sign
	// either way — under a pairwise combiner they cut one entry per distinct
	// key — and keep their constants. The unique-key rows fell with the same
	// constant (sort/p=2 66.7 → 60.0 ms over four waves, sort/p=8 72.5 →
	// 64.6; hash 80.5 → 78.0 and 67.9 → 67.2): the extra hash-minus-sort gap
	// over the default cardinality moved by -0.3 and +0.5 ms a wave, inside
	// estCardHashMR's resolution.
	// Flink's sorted exchange holds the same table as its hash exchange and
	// cuts it once at end-of-input with the radix run sorter, on the eight
	// bytes of each entry's key hash: sort minus hash slope 0.0016 at p=2 and
	// at p=8 (see estAggCPUFlink for the sweeps; it was +0.0025 while runs
	// were ordered by a comparator that hashed both keys on every call).
	estAggSortCPU   = -0.004
	estAggSortMR    = -0.031
	estAggSortFlink = 0.0016
	// TeraSort hash minus sort slopes: spark 0.0023 and 0.0017, mapreduce
	// 0.0015 and 0.0020.
	estResortCPU = 0.002
	estResortMR  = 0.0018
	// Flink's hash exchange keeps the Sort plan pipelined and sorts at the
	// consumer; its sort exchange breaks the pipeline to ship sorted runs.
	// The two measure level (TeraSort slopes 0.0109 hash, 0.0112 sort).
	estResortFlink = 0.0

	// Per-reduce-task overhead of materialized shuffles (merge fan-in,
	// task launch, segment bookkeeping). [ANCHOR ext10] p=2 → p=8 deltas of
	// the TeraSort rows, where nothing else varies with p: +1.4 ms on
	// spark/sort at both sizes, -0.9…+1.2 on the other six, mean 0.4 over
	// six more tasks. (WordCount rows get faster at p=8, by 0.4…2.7 ms:
	// the reduce-side fold spreads out, which only estMRHashParGain
	// models.)
	estPerReduceTask = 0.0001

	// Flink's per-partition exchange cost on small-record aggregates: more
	// consumers → more channels and more per-packet work. Wall-seconds per
	// input MiB per unit of parallelism. [ANCHOR ext10] WordCount p sweep:
	// (p=8 slope − p=2 slope) / 6: 0.0015 under hash (0.0209 → 0.0299) and
	// nil under sort (0.0241 → 0.0240), mean 0.00075. With the combine in
	// the shuffle core both strategies pay it, and less of it: 0.0006 under
	// hash, 0.0004 under sort, 0.0005 after the session's ratio (see
	// estAggCPUFlink).
	estFlinkChanCPU = 0.0005

	// LZ shuffle compression: CPU cost per input MiB pushed through the
	// codec vs wire bytes halved. At laptop scale the in-memory "network"
	// makes the savings nil and the planner should learn that; at paper
	// bandwidths the same terms flip the sign. [ANCHOR ext10]
	estLZCPU   = 0.012
	estLZRatio = 0.5 // wire bytes after compression [MECH: measured codec ratio on text]

	// Iterate-shape per-iteration cost factors over the aggregate CPU.
	// [MECH] each iteration re-broadcasts and re-reduces a fraction of the
	// load; MapReduce pays a fresh job per iteration (estFixedMR again).
	estIterFrac = 0.30

	// Cardinality model for Aggregate shapes. InputStats.DistinctFrac — the
	// fraction of records carrying a distinct key — is the combiner's
	// selectivity knob: shuffled records ≈ input records × DistinctFrac.
	// The default matches the combine ratio (~2.8×) measured on the Zipf
	// text generator. [ANCHOR ext10]
	estDefaultDistinctFrac = 0.36

	// Serialized shuffle bytes per input byte before the combiner removes
	// anything (pair lifting + per-record framing): Aggregate raw volume =
	// input × estAggRawExpand × DistinctFrac; Sort shapes repartition every
	// record once. [ANCHOR ext10] observed ShuffleRawBytesWritten / input.
	estAggRawExpand  = 8.8
	estSortRawExpand = 1.2

	// High-cardinality penalties, wall-seconds per input MiB at the full
	// distinct fraction (scaled by how far DistinctFrac sits above the
	// calibrated default). [ANCHOR ext10] unique-key WordCount probe, per
	// 192 KiB wave:
	//   - Spark and Flink push every uncombined record through the
	//     exchange: a row's per-wave time less the fixed part, over
	//     0.1875 MiB, less the aggregate, strategy, channel and I/O terms
	//     (spark 0.018…0.030 over its four rows, flink 0.051…0.066; Flink
	//     pays about twice Spark's price per record).
	//   - MapReduce's hash path buffers every arrival and groups the lot
	//     through the combine table at drain, which a combiner that removes
	//     nothing makes pure overhead, while its sort path was going to
	//     sort anyway: hash minus sort at equal p, over the same gap at
	//     the default cardinality, was 1.6 ms a wave at p=2 and 1.7 at p=8
	//     (0.012 here) and the hash→sort flip of the early ext10 sweeps.
	//     With the normalized-key sort the sort path wins at the default
	//     cardinality too (estAggSortMR) and the extra gap reads +1.5 and
	//     -0.7 ms a wave in six sweeps, +1.9 and +1.2 in three later ones:
	//     clear at p=2, inside the noise at p=8, mean 1.0 over 0.1875 MiB.
	//     Flink's four rows fell to 0.66-0.67 of before with its combine in
	//     the shuffle core (62.2, 59.2, 64.9, 61.6 → 41.1, 39.8, 42.9, 41.2
	//     ms over four waves; the model's rows times those ratios, less the
	//     terms above as re-read: 0.0348…0.0357) — a record that finds no
	//     entry to fold into no longer pays a Go map insert and a shared
	//     counter on its way to the exchange, and costs 1.4× spark's.
	estCardCPUSpark = 0.025
	estCardCPUFlink = 0.035
	estCardHashMR   = 0.005

	// MapReduce's barriered reduce phase parallelizes the hash-bucket
	// merge across reducers: measured p=2 → p=8 gain on hash aggregates,
	// 1.4 ms at 192 KiB (3.8 ms at 768 KiB), over 0.75 of the input.
	// [ANCHOR ext10]
	estMRHashParGain = 0.010

	// estCalibSlots is the busy-slot count the CPU slopes were fitted at.
	// [ANCHOR ext10] 2 nodes × 8 cores.
	estCalibSlots = 16
)

// PlanStats is the logical-plan summary Estimate consumes: the workload's
// shuffle shape rather than its operator DAG (the costs key on the former).
type PlanStats struct {
	Workload   string
	Shape      EstShape
	Iterations int // Iterate shapes; ignored otherwise
}

// EstShape classifies the plan's physical character.
type EstShape int

// Estimate shapes.
const (
	EstAggregate EstShape = iota // map + keyed reduction (Word Count)
	EstSort                      // total-order repartition (Tera Sort)
	EstScan                      // shuffle-free filter (Grep)
	EstIterate                   // iterative refinement (K-Means)
)

// InputStats carries what is known about the input before execution.
type InputStats struct {
	Bytes   int64
	Records int64 // 0 = derive from Bytes
	// DistinctFrac is the fraction of records carrying a distinct key —
	// the map-side combiner's selectivity. 0 = unknown (use the calibrated
	// default); 1 = every key distinct, combining does nothing, as on
	// calibrate's WC-unique rows.
	DistinctFrac float64
}

// StageEstimate is one stage's predicted contribution.
type StageEstimate struct {
	Name            string
	Seconds         float64
	ShuffleRawBytes int64 // serialized shuffle bytes this stage writes
}

// CostEstimate is Estimate's answer: end-to-end seconds, the per-stage
// breakdown, and the intermediate shuffle volumes.
type CostEstimate struct {
	Seconds         float64
	Stages          []StageEstimate
	ShuffleRawBytes int64
	ShuffleRecords  int64
}

// Estimate predicts the wall-clock of one plan on the real mini-engines
// under p's engine, cluster spec and configuration (shuffle.strategy,
// shuffle.compress and the engine parallelism keys are read from p.Conf).
// It is deterministic and cheap: the planner calls it once per candidate.
func Estimate(plan PlanStats, in InputStats, p Params) (CostEstimate, error) {
	if p.Conf == nil {
		p.Conf = core.NewConfig()
	}
	if in.Bytes <= 0 {
		return CostEstimate{}, fmt.Errorf("sim: estimate %s: input bytes unknown", plan.Workload)
	}
	miB := float64(in.Bytes) / (1 << 20)
	records := float64(in.Records)
	if records <= 0 {
		records = float64(in.Bytes) / 7 // text-ish default record width [MECH]
	}
	slots := p.Spec.TotalCores()
	if slots <= 0 {
		slots = estCalibSlots
	}
	// The CPU slopes were fitted with every slot busy; other cluster sizes
	// scale inversely with the slot count, floored by the parallelism
	// penalty below.
	cpuScale := float64(estCalibSlots) / float64(slots)

	par := engineParallelism(p)
	strat := effectiveStrategy(p)
	compress := shuffle.CompressorFor(p.Conf.ShuffleCompress) != nil

	var fixed, cpu float64
	switch p.Engine {
	case Flink:
		fixed, cpu = estFixedFlink, estFlinkCPU(plan.Shape)
	case MapReduce:
		fixed, cpu = estFixedMR, estMRCPU(plan.Shape)
	default:
		fixed, cpu = estFixedSpark, estSparkCPU(plan.Shape)
	}

	// Over-subscription pays per-task overhead (the paper's Section VI-A
	// knob). Under-subscription is NOT penalized here: at the measured
	// laptop scale reduce waves overlap the map side and the probe sweeps
	// show flat or better times at low parallelism — the per-task terms
	// below carry that preference instead.
	penalty := 1.0
	if tasksPerCore := float64(par) / float64(slots); tasksPerCore > 3 {
		penalty += 0.02 * (tasksPerCore - 3)
	}

	body := cpu * miB * cpuScale * penalty

	// Combiner selectivity: cardFrac is 0 at the calibrated default and 1
	// when every key is distinct.
	df := in.DistinctFrac
	if df <= 0 {
		df = estDefaultDistinctFrac
	}
	if df > 1 {
		df = 1
	}
	cardFrac := 0.0
	if df > estDefaultDistinctFrac {
		cardFrac = (df - estDefaultDistinctFrac) / (1 - estDefaultDistinctFrac)
	}

	// Serialized (raw) shuffle volume by shape.
	var shufMiB float64
	switch plan.Shape {
	case EstSort:
		shufMiB = miB * estSortRawExpand // every record repartitions once
	case EstScan:
		shufMiB = 0
	default:
		shufMiB = miB * estAggRawExpand * df
	}

	// Strategy asymmetries (see constants above).
	switch {
	case plan.Shape == EstAggregate && strat == shuffle.Sort:
		aggSort := estAggSortCPU
		switch p.Engine {
		case MapReduce:
			aggSort = estAggSortMR
		case Flink:
			aggSort = estAggSortFlink
		}
		body += aggSort * miB * cpuScale
	case plan.Shape == EstSort && strat == shuffle.Hash:
		resort := estResortCPU
		switch p.Engine {
		case MapReduce:
			resort = estResortMR
		case Flink:
			resort = estResortFlink
		}
		body += resort * miB * cpuScale
	}

	// High-cardinality aggregation penalties (see constants above).
	if cardFrac > 0 && plan.Shape == EstAggregate {
		switch p.Engine {
		case Flink:
			body += estCardCPUFlink * miB * cpuScale * cardFrac
		case MapReduce:
			if strat == shuffle.Hash {
				body += estCardHashMR * miB * cpuScale * cardFrac
			}
		default:
			body += estCardCPUSpark * miB * cpuScale * cardFrac
		}
	}

	// MapReduce's reduce barrier spreads the hash-bucket merge across
	// reducers; the gain saturates as parallelism grows past the minimum.
	if p.Engine == MapReduce && plan.Shape == EstAggregate && strat == shuffle.Hash && par > 2 {
		body -= estMRHashParGain * miB * cpuScale * (1 - 2/float64(par))
	}

	// Materialized-shuffle per-reduce-task overhead (Spark, MapReduce);
	// Flink instead pays per-channel work that grows with parallelism on
	// record-heavy aggregates.
	if p.Engine == Flink {
		if plan.Shape == EstAggregate || plan.Shape == EstIterate {
			body += estFlinkChanCPU * miB * cpuScale * float64(par)
		}
	} else if shufMiB > 0 {
		body += estPerReduceTask * float64(par)
	}

	wireMiB := shufMiB
	if compress && shufMiB > 0 {
		body += estLZCPU * miB * cpuScale
		wireMiB = shufMiB * estLZRatio
	}

	// Explicit I/O terms from the cluster spec: sequential input read,
	// remote shuffle transfer. Negligible at laptop rates, dominant at the
	// paper's disks — the scale sensitivity Sec. V describes. [MECH]
	nodes := float64(p.Spec.Nodes)
	if nodes <= 0 {
		nodes = 1
	}
	remote := 1 - 1/nodes
	var io float64
	if p.Spec.DiskSeqMiBps > 0 {
		io += miB / (p.Spec.DiskSeqMiBps * nodes)
	}
	if p.Spec.NetMiBps > 0 {
		io += wireMiB * remote / (p.Spec.NetMiBps * nodes)
	}

	iters := 1
	if plan.Shape == EstIterate {
		if plan.Iterations > 0 {
			iters = plan.Iterations
		}
		perIter := body * estIterFrac
		switch p.Engine {
		case MapReduce:
			perIter += estFixedMR // a whole chained job per iteration
		case Spark:
			perIter += estFixedSpark // a fresh stage wave per iteration
		}
		body += perIter * float64(iters)
	}

	total := fixed + body + io
	rawBytes := int64(shufMiB * (1 << 20))

	shufRecords := records
	if plan.Shape == EstAggregate || plan.Shape == EstIterate {
		shufRecords = records * df // the combiner removed the rest
	}
	est := CostEstimate{
		Seconds:         total,
		ShuffleRawBytes: rawBytes,
		ShuffleRecords:  int64(math.Min(shufRecords, float64(math.MaxInt64))),
	}
	switch p.Engine {
	case Flink:
		est.Stages = []StageEstimate{{Name: "pipeline", Seconds: total, ShuffleRawBytes: rawBytes}}
	default:
		// Staged engines: the map stage produces the shuffle, the reduce
		// stage consumes it. The split mirrors the measured span ratios.
		mapSec := fixed + body*0.6 + io*0.5
		est.Stages = []StageEstimate{
			{Name: "map", Seconds: mapSec, ShuffleRawBytes: rawBytes},
			{Name: "reduce", Seconds: total - mapSec},
		}
	}
	return est, nil
}

// estSparkCPU, estMRCPU and estFlinkCPU pick the fitted shape slope.
func estSparkCPU(s EstShape) float64 {
	switch s {
	case EstSort:
		return estSortCPUSpark
	case EstScan:
		return estAggCPUSpark * estScanFactor
	default:
		return estAggCPUSpark
	}
}

func estMRCPU(s EstShape) float64 {
	switch s {
	case EstSort:
		return estSortCPUMR
	case EstScan:
		return estAggCPUMR * estScanFactor
	default:
		return estAggCPUMR
	}
}

func estFlinkCPU(s EstShape) float64 {
	switch s {
	case EstSort:
		return estSortCPUFlink
	case EstScan:
		return estMapCPUFlink * estScanFactor
	case EstAggregate:
		return estAggCPUFlink
	default:
		return estMapCPUFlink
	}
}

// engineParallelism resolves the engine's reduce-side task count from the
// configuration, mirroring each engine's own fallback rule.
func engineParallelism(p Params) int {
	switch p.Engine {
	case Flink:
		if par := p.Conf.FlinkDefaultParallelism; par > 0 {
			return par
		}
		return p.Spec.TotalCores()
	case MapReduce:
		if par := p.Conf.MRReduceTasks; par > 0 {
			return par
		}
		return p.Spec.Nodes
	default:
		return sparkParallelism(p)
	}
}

// effectiveStrategy resolves shuffle.strategy over the engine default —
// the same rule each engine applies (see internal/shuffle.FromConf).
func effectiveStrategy(p Params) shuffle.Kind {
	def := shuffle.Sort
	switch p.Engine {
	case Flink:
		def = shuffle.Hash
	case Spark:
		def = shuffle.ParseKind(p.Conf.SparkShuffleManager, def)
	}
	return shuffle.ParseKind(p.Conf.ShuffleStrategy, def)
}
