package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// metricDef names one declared metric. BENCHMARK.json carries the same
// names and units plus direction and bound; the smoke test keeps the two
// in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEndDefs are what a user of the engines sees: how long a job takes
// and how much it allocates, per engine, plus the benchmark's set-up time.
// Failed jobs are reported through the result line's attempted/failed.
func endToEndDefs() []metricDef {
	var defs []metricDef
	for _, e := range engines {
		defs = append(defs, metricDef{e + ".job_s", "s"})
	}
	for _, e := range engines {
		defs = append(defs, metricDef{e + ".allocs_per_rec", "allocs/rec"})
	}
	return append(defs, metricDef{"setup_s", "s"})
}

// perLayerDefs are the traced run's numbers, grouped by the module they
// measure. README.md is the glossary.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"dfs.ingest.ns_per_rec", "ns/rec"},
		{"dfs.ingest.mib_per_s", "MiB/s"},
		{"dfs.sink.ns_per_byte", "ns/byte"},
	}
	for _, e := range engines {
		defs = append(defs, metricDef{"dataflow.narrow." + e + ".ns_per_rec", "ns/rec"})
	}
	defs = append(defs,
		metricDef{"serde.of_pair.encode_ns_per_rec", "ns/rec"},
		metricDef{"serde.of_pair.decode_ns_per_rec", "ns/rec"},
		metricDef{"serde.of_pair.bytes_per_rec", "B/rec"},
		metricDef{"serde.of.encode_ns_per_rec", "ns/rec"},
		metricDef{"serde.of.decode_ns_per_rec", "ns/rec"},
		metricDef{"serde.of.bytes_per_rec", "B/rec"},
		metricDef{"shuffle.write.sort.ns_per_rec", "ns/rec"},
		metricDef{"shuffle.write.hash.ns_per_rec", "ns/rec"},
		metricDef{"shuffle.write.sort.allocs_per_rec", "allocs/rec"},
		metricDef{"shuffle.write.hash.allocs_per_rec", "allocs/rec"},
		metricDef{"shuffle.write.combine_ratio", "ratio"},
		metricDef{"shuffle.write.wire_bytes_per_rec", "B/rec"},
		metricDef{"shuffle.write.blocks", "count"},
		metricDef{"shuffle.write.spills", "count"},
		metricDef{"shuffle.read.decode_ns_per_rec", "ns/rec"},
		metricDef{"shuffle.read.merge_ns_per_rec", "ns/rec"},
		metricDef{"cluster.sched.ns_per_task", "ns/task"},
		metricDef{"cluster.sched.ns_per_wave", "ns/wave"},
	)
	for _, e := range engines {
		defs = append(defs, metricDef{"memory.pool." + e + ".hit_ratio", "ratio"})
	}
	for _, e := range engines {
		defs = append(defs,
			metricDef{e + ".shuffle_bytes_written", "B"},
			metricDef{e + ".shuffle_bytes_read", "B"},
			metricDef{e + ".spill_count", "count"},
			metricDef{e + ".disk_bytes_written", "B"},
			metricDef{e + ".tasks_launched", "count"},
			metricDef{e + ".stages", "count"},
			metricDef{e + ".scheduling_rounds", "count"},
			metricDef{e + ".combine_ratio", "ratio"},
			metricDef{e + ".cache_hit_ratio", "ratio"},
		)
	}
	for _, e := range engines {
		defs = append(defs,
			metricDef{e + ".job_cpu_s", "s"},
			metricDef{e + ".alloc_bytes_per_rec", "B/rec"},
			metricDef{e + ".gc_cycles", "count"},
			metricDef{e + ".gc_pause_ms", "ms"},
			metricDef{e + ".peak_heap_mib", "MiB"},
			metricDef{e + ".job_fixed_ms", "ms"},
			metricDef{e + ".attributed_share", "ratio"},
		)
	}
	return append(defs, metricDef{"trace.overhead_ratio", "ratio"})
}

// report collects one run's metric values by declared name.
type report struct {
	vals map[string]float64
	// absent marks a metric whose layer the workload does not exercise
	// (serde and shuffle on grep, ingest on pagerank). The result file
	// omits it; the result line, which must carry every declared name,
	// prints 0 for it.
	absent map[string]bool
}

func newReport() *report {
	return &report{vals: map[string]float64{}, absent: map[string]bool{}}
}

func (r *report) set(name string, v float64) { r.vals[name] = v }

// notApplicable marks every declared per-layer metric under the given name
// prefixes ("serde." for the layer, a full name for one metric).
func (r *report) notApplicable(prefixes ...string) {
	for _, d := range perLayerDefs() {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				r.absent[d.Name] = true
			}
		}
	}
}

// measured is the JSON shape of one metric on the result line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line JSON object the driver reads from the last
// line of standard output.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// line renders the report against the declared metric list: every declared
// name exactly once, nothing undeclared.
func (r *report) line(defs []metricDef, attempted, failed int) (string, error) {
	out := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]measured, len(defs))}
	for _, d := range defs {
		v, ok := r.vals[d.Name]
		if !ok && !r.absent[d.Name] {
			return "", fmt.Errorf("declared metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = measured{Value: v, Unit: d.Unit}
	}
	for name := range r.vals {
		if _, ok := out.Metrics[name]; !ok {
			return "", fmt.Errorf("measured metric %s is not declared", name)
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
