package des

import (
	"math"
	"testing"
)

func TestSimulatorOrdering(t *testing.T) {
	sim := New()
	var order []int
	sim.Schedule(5, func() { order = append(order, 2) })
	sim.Schedule(1, func() { order = append(order, 1) })
	sim.Schedule(5, func() { order = append(order, 3) }) // same time: FIFO by seq
	end := sim.Run()
	if end != 5 {
		t.Errorf("end time = %v, want 5", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("event order = %v, want [1 2 3]", order)
	}
}

func TestScheduleFromEvent(t *testing.T) {
	sim := New()
	var hit float64
	sim.Schedule(2, func() {
		sim.Schedule(3, func() { hit = sim.Now() })
	})
	sim.Run()
	if hit != 5 {
		t.Errorf("nested event fired at %v, want 5", hit)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	sim := New()
	fired := false
	sim.Schedule(1, func() {
		sim.Schedule(-10, func() { fired = sim.Now() == 1 })
	})
	sim.Run()
	if !fired {
		t.Error("negative delay should fire at the current time")
	}
}

func TestResourceSingleDemand(t *testing.T) {
	sim := New()
	r := NewResource(sim, 4)
	var doneAt float64
	// 8 core-seconds at a cap of 1 core → 8 seconds.
	r.Use(8, 1, 1, func() { doneAt = sim.Now() })
	sim.Run()
	if math.Abs(doneAt-8) > 1e-9 {
		t.Errorf("single capped demand finished at %v, want 8", doneAt)
	}
}

func TestResourceUncappedDemandUsesFullCapacity(t *testing.T) {
	sim := New()
	r := NewResource(sim, 100)
	var doneAt float64
	r.Use(500, 1, math.Inf(1), func() { doneAt = sim.Now() })
	sim.Run()
	if math.Abs(doneAt-5) > 1e-9 {
		t.Errorf("uncapped demand finished at %v, want 5", doneAt)
	}
}

func TestResourceFairSharing(t *testing.T) {
	sim := New()
	r := NewResource(sim, 100)
	var t1, t2 float64
	// Two equal uncapped demands of 500 units: each gets 50 u/s while both
	// are active. Both finish at t=10.
	r.Use(500, 1, math.Inf(1), func() { t1 = sim.Now() })
	r.Use(500, 1, math.Inf(1), func() { t2 = sim.Now() })
	sim.Run()
	if math.Abs(t1-10) > 1e-9 || math.Abs(t2-10) > 1e-9 {
		t.Errorf("equal sharing finish times = %v, %v, want 10, 10", t1, t2)
	}
}

func TestResourceWorkConservingAfterCompletion(t *testing.T) {
	sim := New()
	r := NewResource(sim, 100)
	var tShort, tLong float64
	// Short 250 and long 750 units: share until short finishes at t=5,
	// then long runs at full rate: remaining 500 at 100 u/s → t=10.
	r.Use(250, 1, math.Inf(1), func() { tShort = sim.Now() })
	r.Use(750, 1, math.Inf(1), func() { tLong = sim.Now() })
	sim.Run()
	if math.Abs(tShort-5) > 1e-9 {
		t.Errorf("short finished at %v, want 5", tShort)
	}
	if math.Abs(tLong-10) > 1e-9 {
		t.Errorf("long finished at %v, want 10", tLong)
	}
}

func TestResourceWeights(t *testing.T) {
	sim := New()
	r := NewResource(sim, 90)
	var tA, tB float64
	// Weight 2 vs 1: A gets 60, B gets 30.
	r.Use(600, 2, math.Inf(1), func() { tA = sim.Now() })
	r.Use(300, 1, math.Inf(1), func() { tB = sim.Now() })
	sim.Run()
	if math.Abs(tA-10) > 1e-9 || math.Abs(tB-10) > 1e-9 {
		t.Errorf("weighted finish = %v, %v, want 10, 10", tA, tB)
	}
}

func TestResourceCapRedistribution(t *testing.T) {
	sim := New()
	r := NewResource(sim, 16)
	var tCapped, tHungry float64
	// Capped task can use at most 1 core; the other may use up to 16.
	// Water-filling: capped gets 1, hungry gets 15.
	r.Use(10, 1, 1, func() { tCapped = sim.Now() })
	r.Use(150, 1, 16, func() { tHungry = sim.Now() })
	sim.Run()
	if math.Abs(tCapped-10) > 1e-9 {
		t.Errorf("capped finished at %v, want 10", tCapped)
	}
	if math.Abs(tHungry-10) > 1e-9 {
		t.Errorf("hungry finished at %v, want 10 (15 cores share)", tHungry)
	}
}

func TestResourceManySingleCoreTasks(t *testing.T) {
	// 32 single-core tasks of 10 core-seconds on a 16-core node: two waves
	// would take 20 s if scheduled in batches, but processor sharing runs
	// all at rate 0.5 → everything completes at t=20 too.
	sim := New()
	r := NewResource(sim, 16)
	var last float64
	for i := 0; i < 32; i++ {
		r.Use(10, 1, 1, func() { last = sim.Now() })
	}
	sim.Run()
	if math.Abs(last-20) > 1e-9 {
		t.Errorf("32 tasks on 16 cores finished at %v, want 20", last)
	}
}

func TestResourceZeroUnitsCompletesImmediately(t *testing.T) {
	sim := New()
	r := NewResource(sim, 1)
	fired := false
	r.Use(0, 1, 1, func() { fired = true })
	sim.Run()
	if !fired {
		t.Error("zero-unit demand never completed")
	}
}

func TestResourceUtilizationSeries(t *testing.T) {
	sim := New()
	r := NewResource(sim, 4)
	r.Use(4, 1, 1, nil) // 1 core for 4s → 25% utilization
	sim.Run()
	u := r.UtilizationSeries()
	if got := u.Avg(0, 4); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("avg utilization = %v, want 0.25", got)
	}
	if got := u.At(5); got != 0 {
		t.Errorf("utilization after completion = %v, want 0", got)
	}
}

func TestSeqRunsInOrder(t *testing.T) {
	sim := New()
	r := NewResource(sim, 10)
	var marks []float64
	Seq([]Step{
		func(done func()) { r.Use(10, 1, math.Inf(1), done) }, // 1s
		Hold(sim, 2),
		func(done func()) { r.Use(20, 1, math.Inf(1), done) }, // 2s
	}, func() { marks = append(marks, sim.Now()) })
	sim.Run()
	if len(marks) != 1 || math.Abs(marks[0]-5) > 1e-9 {
		t.Errorf("Seq completion = %v, want [5]", marks)
	}
}

func TestParBarrier(t *testing.T) {
	sim := New()
	r := NewResource(sim, 10)
	var at float64
	Par([]Step{
		func(done func()) { r.Use(30, 1, 5, done) },
		func(done func()) { r.Use(10, 1, 5, done) },
	}, func() { at = sim.Now() })
	sim.Run()
	if math.Abs(at-6) > 1e-9 {
		t.Errorf("Par completed at %v, want 6 (slowest branch)", at)
	}
}

func TestParEmpty(t *testing.T) {
	fired := false
	Par(nil, func() { fired = true })
	if !fired {
		t.Error("empty Par should complete immediately")
	}
}

func TestCounterExactness(t *testing.T) {
	fired := 0
	c := NewCounter(3, func() { fired++ })
	c.Done()
	c.Done()
	if fired != 0 {
		t.Error("counter fired early")
	}
	c.Done()
	if fired != 1 {
		t.Error("counter did not fire at zero")
	}
	defer func() {
		if recover() == nil {
			t.Error("extra Done should panic")
		}
	}()
	c.Done()
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		sim := New()
		cpu := NewResource(sim, 16)
		disk := NewResource(sim, 150)
		var last float64
		for i := 0; i < 50; i++ {
			i := i
			Seq([]Step{
				func(done func()) { cpu.Use(float64(5+i%7), 1, 1, done) },
				func(done func()) { disk.Use(float64(20+i%13), 1, 150, done) },
			}, func() { last = sim.Now() })
		}
		sim.Run()
		return last, sim.Fired()
	}
	l1, f1 := run()
	l2, f2 := run()
	if l1 != l2 || f1 != f2 {
		t.Errorf("simulation not deterministic: (%v,%d) vs (%v,%d)", l1, f1, l2, f2)
	}
}
