package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// trial is one measured (or warm-up) execution of a workload on an engine.
type trial struct {
	seconds float64
	mallocs uint64
	failed  int // jobs that errored or failed verification
	err     error
	stats   jobStats // traced trials only
}

// runTrial opens a fresh session over a fresh DFS, loads the input, and
// times only the action call(s). Verification runs after the clock stops.
// With a tracer the trial is also wrapped in spans and process counters;
// timed runs pass nil and pay for none of that.
func runTrial(inst *instance, engine string, tr *tracer) trial {
	root := tr.root("trial." + engine)
	defer root.end()
	root.count("records", float64(inst.records))

	sp := root.child("open")
	s, err := openSession(engine)
	sp.end()
	if err != nil {
		return trial{failed: inst.jobs, err: err}
	}
	sp = root.child("load")
	inst.load(s)
	sp.end()
	runtime.GC()

	var probe *jobProbe
	if tr != nil {
		probe = startProbe()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp = root.child("run")
	start := time.Now()
	out, err := inst.run(s)
	elapsed := time.Since(start)
	sp.end()
	runtime.ReadMemStats(&after)
	t := trial{seconds: elapsed.Seconds(), mallocs: after.Mallocs - before.Mallocs}
	if probe != nil {
		t.stats = probe.stop(s, &before, &after)
	}
	if err != nil {
		t.failed, t.err = inst.jobs, fmt.Errorf("%s on %s: %w", inst.name, engine, err)
		return t
	}
	sp = root.child("check")
	t.failed, err = inst.check(s, out)
	sp.end()
	if err != nil {
		t.err = fmt.Errorf("%s on %s: %w", inst.name, engine, err)
	}
	return t
}

// summary is a timing reported the way the guide asks: median, quartiles,
// extremes and the sample count. No tail percentile: a run holds fewer
// than ten samples beyond any.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Min: s[0], Max: s[len(s)-1], N: len(s),
	}
}

// quantile interpolates linearly over sorted samples.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// minRounds is how many full rounds every run measures, however short
// --seconds is: the floor on any engine's sample count.
const minRounds = 4

// timedResult is one workload's timed run: per-engine samples from the
// measured trials, plus the job accounting that includes the warm-up.
type timedResult struct {
	tally
	setupS  float64
	warmupS float64
	jobS    map[string][]float64
	allocs  map[string][]float64 // heap allocations per record
}

// tally counts jobs attempted and failed over a run, warm-up included.
type tally struct {
	attempted int
	failed    int
	errs      []string
}

func (c *tally) account(inst *instance, t trial) {
	c.attempted += inst.jobs
	c.failed += t.failed
	if t.err != nil {
		c.errs = append(c.errs, t.err.Error())
	}
}

// timedRun is the closed loop with one client: jobs run back to back, one
// at a time. After one warm-up round (each engine once, so pools and
// lazily built state fill) it measures minRounds full rounds, the three
// engines once each with the starting engine rotating so machine drift
// hits them equally. The rest of the time tops up whichever engine has had
// the least of the run so far: a job that takes a tenth of another's time
// is sampled ten times as often, and its median is as steady.
func timedRun(inst *instance, seconds float64, procStart time.Time) *timedResult {
	res := &timedResult{jobS: map[string][]float64{}, allocs: map[string][]float64{}}
	warmStart := time.Now()
	for _, e := range engines {
		res.account(inst, runTrial(inst, e, nil))
	}
	res.warmupS = time.Since(warmStart).Seconds()
	res.setupS = time.Since(procStart).Seconds()

	spent := map[string]time.Duration{} // wall time per engine, trial overhead included
	measure := func(e string) {
		trialStart := time.Now()
		t := runTrial(inst, e, nil)
		spent[e] += time.Since(trialStart)
		res.account(inst, t)
		res.jobS[e] = append(res.jobS[e], t.seconds)
		res.allocs[e] = append(res.allocs[e], float64(t.mallocs)/float64(inst.records))
	}
	measureStart := time.Now()
	for round := 0; round < minRounds; round++ {
		for i := range engines {
			measure(engines[(round+i)%len(engines)])
		}
	}
	for time.Since(measureStart).Seconds() < seconds {
		next := engines[0]
		for _, e := range engines[1:] {
			if spent[e] < spent[next] {
				next = e
			}
		}
		measure(next)
	}
	return res
}

// metrics reports the medians under the declared end-to-end names.
func (r *timedResult) metrics() *report {
	rep := newReport()
	for _, e := range engines {
		rep.set(e+".job_s", summarize(r.jobS[e]).Median)
		rep.set(e+".allocs_per_rec", summarize(r.allocs[e]).Median)
	}
	rep.set("setup_s", r.setupS)
	return rep
}
