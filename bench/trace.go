package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/dataflow"
	"repro/internal/memory"
)

// span is one traced interval. Spans are recorded from this package, around
// calls into each layer's exported functions; nothing inside the engines is
// instrumented. Every span under one root shares the root's job id. A
// span's self time is its duration minus the part its children cover.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"` // 0 for a root
	Job     int                `json:"job"`
	Name    string             `json:"name"`
	StartNs int64              `json:"start_ns"` // since the trace began
	EndNs   int64              `json:"end_ns"`
	CPUNs   int64              `json:"cpu_ns"` // process CPU time spent inside
	Counts  map[string]float64 `json:"counts,omitempty"`

	tr   *tracer
	cpu0 int64
}

// tracer keeps spans in memory until the run ends. It is driven from the
// benchmark's single client goroutine and takes no locks. A nil tracer and
// the nil spans it hands out are valid and record nothing, which is how
// timed runs share the trial code with traced ones.
type tracer struct {
	t0    time.Time
	spans []*span
	jobs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) open(name string, parent, job int) *span {
	s := &span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, tr: t,
		StartNs: time.Since(t.t0).Nanoseconds(), cpu0: processCPU()}
	t.spans = append(t.spans, s)
	return s
}

// root opens a span with a fresh job id.
func (t *tracer) root(name string) *span {
	if t == nil {
		return nil
	}
	t.jobs++
	return t.open(name, 0, t.jobs)
}

func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.tr.open(name, s.ID, s.Job)
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.CPUNs = processCPU() - s.cpu0
	s.EndNs = time.Since(s.tr.t0).Nanoseconds()
}

// count records a count taken at the span's boundary.
func (s *span) count(name string, v float64) {
	if s == nil {
		return
	}
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[name] = v
}

func (s *span) wallNs() float64 { return float64(s.EndNs - s.StartNs) }

// processCPU is the process's user+system CPU time in nanoseconds.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// jobStats is what the traced run reads around one real job, all from
// outside the program: process counters, the shared buffer pool's traffic
// and the session's own job counters. Keys that are a per-layer metric's
// suffix feed <engine>.<key> directly.
type jobStats map[string]float64

// directStats are the jobStats keys reported as <engine>.<key> unchanged.
var directStats = []string{
	"job_cpu_s", "gc_cycles", "gc_pause_ms", "peak_heap_mib",
	"shuffle_bytes_written", "shuffle_bytes_read", "spill_count", "disk_bytes_written",
	"tasks_launched", "stages", "scheduling_rounds", "combine_ratio",
}

// jobProbe brackets the timed region of a traced trial.
type jobProbe struct {
	cpu0          int64
	gets0, misses int64
	stopSampler   func() float64
}

func startProbe() *jobProbe {
	gets, _, misses := memory.DefaultPool.Stats()
	return &jobProbe{cpu0: processCPU(), gets0: gets, misses: misses, stopSampler: sampleHeapPeak()}
}

func (p *jobProbe) stop(s *dataflow.Session, before, after *runtime.MemStats) jobStats {
	cpu := processCPU() - p.cpu0
	peak := p.stopSampler()
	gets, _, misses := memory.DefaultPool.Stats()
	snap := s.Metrics().Snapshot()
	return jobStats{
		"job_cpu_s":             float64(cpu) / 1e9,
		"alloc_bytes":           float64(after.TotalAlloc - before.TotalAlloc),
		"gc_cycles":             float64(after.NumGC - before.NumGC),
		"gc_pause_ms":           float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		"peak_heap_mib":         peak / (1 << 20),
		"pool_gets":             float64(gets - p.gets0),
		"pool_misses":           float64(misses - p.misses),
		"shuffle_bytes_written": float64(snap.ShuffleBytesWritten),
		"shuffle_bytes_read":    float64(snap.ShuffleBytesRead),
		"spill_count":           float64(snap.SpillCount),
		"disk_bytes_written":    float64(snap.DiskBytesWritten),
		"tasks_launched":        float64(snap.TasksLaunched),
		"stages":                float64(snap.Stages),
		"scheduling_rounds":     float64(snap.SchedulingRounds),
		"combine_ratio":         snap.CombineRatio,
		"cache_hits":            float64(snap.CacheHits),
		"cache_misses":          float64(snap.CacheMisses),
	}
}

// sampleHeapPeak polls the heap's object bytes every few milliseconds
// through runtime/metrics, which does not stop the world, and returns a
// function that stops the sampler, waits for it and yields the peak.
func sampleHeapPeak() func() float64 {
	sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() float64 {
		rtmetrics.Read(sample)
		return float64(sample[0].Value.Uint64())
	}
	peak := read()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if v := read(); v > peak {
					peak = v
				}
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		if v := read(); v > peak {
			peak = v
		}
		return peak
	}
}
