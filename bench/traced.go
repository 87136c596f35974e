package main

import (
	"time"
)

// tracedShare is the part of --seconds the traced run spends on real jobs;
// the fixed-cost jobs and the layer replay that follow are a fixed amount
// of work.
const tracedShare = 0.6

// schedWaves is how many no-op RunTasks rounds the scheduling replay runs.
const schedWaves = 500

// tracedResult is one workload's traced run.
type tracedResult struct {
	tally
	rep *report
	tr  *tracer
}

// tracedRun produces the per-layer metrics, never the end-to-end ones. Per
// engine it alternates untraced and traced real jobs at the normal settings
// (their ratio is the tracing overhead), repeats the ~1 000-record job for
// the fixed per-job cost, and then replays the layers single-threaded.
func tracedRun(inst, fixed *instance, seconds float64, fixedRepeats int) (*tracedResult, error) {
	res := &tracedResult{rep: newReport(), tr: newTracer()}
	for _, e := range engines { // warm-up, as in the timed run
		res.account(inst, runTrial(inst, e, nil))
	}

	plain := map[string][]float64{}
	traced := map[string][]float64{}
	stats := map[string][]jobStats{}
	start := time.Now()
	for pair := 0; pair < 2 || time.Since(start).Seconds() < tracedShare*seconds; pair++ {
		for i := range engines {
			e := engines[(pair+i)%len(engines)]
			for _, withTrace := range []bool{pair%2 == 0, pair%2 != 0} {
				if withTrace {
					t := runTrial(inst, e, res.tr)
					res.account(inst, t)
					traced[e] = append(traced[e], t.seconds)
					if t.stats != nil {
						stats[e] = append(stats[e], t.stats)
					}
				} else {
					t := runTrial(inst, e, nil)
					res.account(inst, t)
					plain[e] = append(plain[e], t.seconds)
				}
			}
		}
	}

	for _, e := range engines {
		var ms []float64
		for i := 0; i < fixedRepeats; i++ {
			t := runTrial(fixed, e, nil)
			res.account(fixed, t)
			ms = append(ms, t.seconds*1e3)
		}
		res.rep.set(e+".job_fixed_ms", summarize(ms).Median)
	}

	root := res.tr.root("replay")
	cpu, err := inst.replay(root, res.rep)
	if err == nil {
		err = replaySched(root, res.rep, schedWaves)
	}
	root.end()
	if err != nil {
		return nil, err
	}

	var overhead float64
	for _, e := range engines {
		overhead += summarize(traced[e]).Median / summarize(plain[e]).Median / float64(len(engines))
		engineMetrics(res.rep, inst, e, stats[e], cpu)
	}
	res.rep.set("trace.overhead_ratio", overhead)
	return res, nil
}

// engineMetrics reports one engine's counters as medians over its traced
// jobs (the exact counts are the same in every job).
func engineMetrics(rep *report, inst *instance, e string, jobs []jobStats, cpu *layerCPU) {
	med := func(key string) float64 {
		xs := make([]float64, len(jobs))
		for i, j := range jobs {
			xs[i] = j[key]
		}
		return summarize(xs).Median
	}
	for _, key := range directStats {
		rep.set(e+"."+key, med(key))
	}
	rep.set(e+".alloc_bytes_per_rec", med("alloc_bytes")/float64(inst.records))
	ratio := func(name string, part, whole float64) {
		if whole == 0 {
			rep.notApplicable(name) // the job never asked
			return
		}
		rep.set(name, part/whole)
	}
	ratio(e+".cache_hit_ratio", med("cache_hits"), med("cache_hits")+med("cache_misses"))
	ratio("memory.pool."+e+".hit_ratio", med("pool_gets")-med("pool_misses"), med("pool_gets"))

	// The layers this engine's job passes through, at replay cost: ingest
	// and narrow kernels once per job, its shuffle writer (hash for flink's
	// pipelined exchange, sort for the other two), the reader, the sink,
	// and one scheduled task per task it launched. The remainder is engine
	// glue, scheduling waits and GC; it is reported, not enforced.
	write := cpu.writeSort
	if e == "flink" {
		write = cpu.writeHash
	}
	layers := float64(inst.jobs)*(cpu.ingest+cpu.narrow[e]) + write + cpu.read + cpu.sink +
		med("tasks_launched")*rep.vals["cluster.sched.ns_per_task"]
	ratio(e+".attributed_share", layers, med("job_cpu_s")*1e9)
}
