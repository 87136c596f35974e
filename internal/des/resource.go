package des

import (
	"math"

	"repro/internal/stats"
)

// Demand is an outstanding amount of work on a Resource. Work is measured
// in the resource's units (core-seconds for CPU, bytes for disk/network).
type Demand struct {
	remaining float64
	weight    float64
	maxRate   float64
	rate      float64
	done      func()
	id        int64
}

// Resource is a capacity shared among active demands by weighted processor
// sharing with per-demand rate caps (water-filling). It models a node's CPU
// (capacity = cores, cap = task threads), disk (capacity = MiB/s) and NIC
// (capacity = MiB/s).
type Resource struct {
	sim        *Simulator
	capacity   float64
	demands    []*Demand
	lastT      float64
	gen        int64
	nextID     int64
	rateSeries stats.StepSeries
}

// NewResource creates a resource owned by sim with the given capacity in
// units per second.
func NewResource(sim *Simulator, capacity float64) *Resource {
	if capacity <= 0 {
		panic("des: resource capacity must be positive")
	}
	return &Resource{sim: sim, capacity: capacity}
}

// Capacity returns the configured capacity.
func (r *Resource) Capacity() float64 { return r.capacity }

// Use enqueues units of work. weight sets the fair-share proportion and
// maxRate caps the allocation (use math.Inf(1) for no cap; a single-threaded
// CPU task uses maxRate 1 core). done fires when the work completes.
func (r *Resource) Use(units, weight, maxRate float64, done func()) {
	if units <= 0 {
		r.sim.Schedule(0, done)
		return
	}
	if weight <= 0 {
		weight = 1
	}
	if maxRate <= 0 {
		maxRate = math.Inf(1)
	}
	r.advance()
	r.nextID++
	r.demands = append(r.demands, &Demand{
		remaining: units,
		weight:    weight,
		maxRate:   maxRate,
		done:      done,
		id:        r.nextID,
	})
	r.reschedule()
}

// advance applies progress accrued since the last state change.
func (r *Resource) advance() {
	now := r.sim.Now()
	dt := now - r.lastT
	if dt > 0 {
		for _, d := range r.demands {
			d.remaining -= d.rate * dt
			if d.remaining < 0 {
				d.remaining = 0
			}
		}
	}
	r.lastT = now
}

// recompute assigns rates by weighted water-filling.
func (r *Resource) recompute() {
	free := r.capacity
	unsat := make([]*Demand, len(r.demands))
	copy(unsat, r.demands)
	for _, d := range r.demands {
		d.rate = 0
	}
	for len(unsat) > 0 && free > 1e-12 {
		totalW := 0.0
		for _, d := range unsat {
			totalW += d.weight
		}
		capped := false
		next := unsat[:0]
		for _, d := range unsat {
			share := free * d.weight / totalW
			if share >= d.maxRate-1e-12 {
				d.rate = d.maxRate
				capped = true
			} else {
				next = append(next, d)
			}
		}
		if !capped {
			for _, d := range next {
				d.rate = free * d.weight / totalW
			}
			break
		}
		// Remove the capped demands' consumption and redistribute.
		used := 0.0
		for _, d := range r.demands {
			if d.rate == d.maxRate {
				used += d.rate
			}
		}
		free = r.capacity - used
		if free < 0 {
			free = 0
		}
		unsat = next
	}
	total := 0.0
	for _, d := range r.demands {
		total += d.rate
	}
	r.rateSeries.Add(r.sim.Now(), total)
}

// reschedule recomputes rates and arms the next completion event.
func (r *Resource) reschedule() {
	r.recompute()
	r.gen++
	gen := r.gen
	nextDT := math.Inf(1)
	for _, d := range r.demands {
		if d.rate > 0 {
			if dt := d.remaining / d.rate; dt < nextDT {
				nextDT = dt
			}
		} else if d.remaining > 0 && len(r.demands) > 0 && r.capacity > 0 {
			// A demand with zero rate can only happen transiently when
			// capacity is fully capped away; water-filling guarantees
			// progress otherwise.
			continue
		}
	}
	if math.IsInf(nextDT, 1) {
		return
	}
	r.sim.Schedule(nextDT, func() {
		if gen != r.gen {
			return // superseded by a later state change
		}
		r.complete()
	})
}

// complete retires finished demands and fires their callbacks.
func (r *Resource) complete() {
	r.advance()
	var finished []*Demand
	live := r.demands[:0]
	for _, d := range r.demands {
		if d.remaining <= 1e-9 {
			finished = append(finished, d)
		} else {
			live = append(live, d)
		}
	}
	r.demands = live
	r.reschedule()
	for _, d := range finished {
		if d.done != nil {
			d.done()
		}
	}
}

// RateSeries returns the recorded total-allocation series (units/second
// over virtual time). Utilization is RateSeries scaled by 1/Capacity.
func (r *Resource) RateSeries() *stats.StepSeries { return &r.rateSeries }

// UtilizationSeries returns the fraction-of-capacity series in [0,1].
func (r *Resource) UtilizationSeries() *stats.StepSeries {
	return r.rateSeries.Scale(1 / r.capacity)
}
