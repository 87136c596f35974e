package disksim

import (
	"math"
	"testing"

	"repro/internal/des"
)

func TestSequentialRead(t *testing.T) {
	sim := des.New()
	d := New(sim, 150)
	var doneAt float64
	d.ReadStep(300*(1<<20), true)(func() { doneAt = sim.Now() })
	sim.Run()
	if math.Abs(doneAt-2) > 1e-9 {
		t.Errorf("300MiB sequential at 150MiB/s took %v, want 2", doneAt)
	}
	if d.BytesRead() != 300*(1<<20) {
		t.Errorf("bytesRead = %v", d.BytesRead())
	}
}

func TestRandomPenalty(t *testing.T) {
	seqSim := des.New()
	seqD := New(seqSim, 150)
	var tSeq float64
	seqD.ReadStep(150*(1<<20), true)(func() { tSeq = seqSim.Now() })
	seqSim.Run()

	rndSim := des.New()
	rndD := New(rndSim, 150)
	var tRnd float64
	rndD.ReadStep(150*(1<<20), false)(func() { tRnd = rndSim.Now() })
	rndSim.Run()

	if tRnd <= tSeq {
		t.Errorf("random read (%v) should be slower than sequential (%v)", tRnd, tSeq)
	}
}

func TestReadWriteContention(t *testing.T) {
	sim := des.New()
	d := New(sim, 100)
	var tR, tW float64
	d.ReadStep(500*(1<<20), true)(func() { tR = sim.Now() })
	d.WriteStep(500*(1<<20), true)(func() { tW = sim.Now() })
	sim.Run()
	// Sharing one head: both streams at 50 MiB/s finish at t=10.
	if math.Abs(tR-10) > 1e-6 || math.Abs(tW-10) > 1e-6 {
		t.Errorf("contended read/write = %v/%v, want 10/10", tR, tW)
	}
	if d.BytesWritten() != 500*(1<<20) {
		t.Errorf("bytesWritten = %v", d.BytesWritten())
	}
}

func TestUtilizationSeries(t *testing.T) {
	sim := des.New()
	d := New(sim, 100)
	d.WriteStep(100*(1<<20), true)(nil)
	sim.Run()
	u := d.UtilizationSeries()
	if got := u.Avg(0, 1); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("utilization during write = %v, want 1.0", got)
	}
}

func TestActiveReadSeries(t *testing.T) {
	sim := des.New()
	d := New(sim, 100)
	d.ReadStep(100*(1<<20), true)(nil)
	d.ReadStep(100*(1<<20), true)(nil)
	sim.Run()
	s := d.ActiveReadSeries()
	if s.Max() != 2 {
		t.Errorf("peak in-flight reads = %v, want 2", s.Max())
	}
	if s.At(s.End()) != 0 {
		t.Errorf("in-flight reads at end = %v, want 0", s.At(s.End()))
	}
}
