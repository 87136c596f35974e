// Package disksim models the single disk drive of a paper-testbed node
// (558 GB, HDD class). It wraps a des.Resource whose capacity is the
// sequential throughput in MiB/s; random access pays a configurable
// penalty. The recorded rate series become the "Disk util %" and
// "I/O MiB/s" curves of the paper's figures.
package disksim

import (
	"sync"

	"repro/internal/des"
	"repro/internal/stats"
)

// DefaultSeqMiBps is the assumed sequential throughput of the testbed's
// single spinning disk. The paper does not give a figure; 150 MiB/s is
// typical for the 2015-era SATA drives in Grid'5000 paravance nodes.
const DefaultSeqMiBps = 150

// Device is one simulated drive.
type Device struct {
	res         *des.Resource
	randPenalty float64

	mu           sync.Mutex
	bytesRead    float64
	bytesWritten float64
	readRate     stats.StepSeries
	sim          *des.Simulator
	activeRead   float64
}

// New creates a device with the given sequential throughput in MiB/s.
func New(sim *des.Simulator, seqMiBps float64) *Device {
	return &Device{
		res:         des.NewResource(sim, seqMiBps),
		randPenalty: 2.5,
		sim:         sim,
	}
}

// ReadStep returns a Step that reads the given bytes. Non-sequential access
// inflates the work by the random penalty, like a drive head seeking.
func (d *Device) ReadStep(bytes float64, sequential bool) des.Step {
	mib := bytes / (1 << 20)
	if !sequential {
		mib *= d.randPenalty
	}
	return func(done func()) {
		d.mu.Lock()
		d.bytesRead += bytes
		d.activeRead++
		d.readRate.Add(d.sim.Now(), d.activeRead)
		d.mu.Unlock()
		d.res.Use(mib, 1, d.res.Capacity(), func() {
			d.mu.Lock()
			d.activeRead--
			d.readRate.Add(d.sim.Now(), d.activeRead)
			d.mu.Unlock()
			if done != nil {
				done()
			}
		})
	}
}

// WriteStep returns a Step that writes the given bytes.
func (d *Device) WriteStep(bytes float64, sequential bool) des.Step {
	mib := bytes / (1 << 20)
	if !sequential {
		mib *= d.randPenalty
	}
	return func(done func()) {
		d.mu.Lock()
		d.bytesWritten += bytes
		d.mu.Unlock()
		d.res.Use(mib, 1, d.res.Capacity(), done)
	}
}

// BytesRead returns cumulative bytes read.
func (d *Device) BytesRead() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytesRead
}

// BytesWritten returns cumulative bytes written.
func (d *Device) BytesWritten() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytesWritten
}

// RateSeries returns the aggregate I/O rate (MiB/s over virtual time).
func (d *Device) RateSeries() *stats.StepSeries { return d.res.RateSeries() }

// UtilizationSeries returns the utilization fraction series.
func (d *Device) UtilizationSeries() *stats.StepSeries { return d.res.UtilizationSeries() }

// ActiveReadSeries returns the number of in-flight reads over time,
// distinguishing the read-dominated from write-dominated phases the paper
// points out in the Tera Sort figure.
func (d *Device) ActiveReadSeries() *stats.StepSeries { return &d.readRate }
