// Package netsim models the 10 Gbps Ethernet of the paper's testbed: one
// NIC resource per node plus Flink's pool of network buffers, whose
// exhaustion fails the job exactly as the paper reports ("we had to
// increase the number of buffers in order to avoid failed executions").
package netsim

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/stats"
)

// DefaultMiBps is the per-node NIC throughput: 10 Gbps ≈ 1192 MiB/s.
const DefaultMiBps = 10_000.0 / 8 / 1.048576

// NIC is one node's network interface. Shuffle traffic is charged at the
// receiver, which is the bottleneck side of all-to-all exchanges.
type NIC struct {
	res *des.Resource

	mu       sync.Mutex
	bytesIn  float64
	bytesOut float64
}

// NewNIC creates a NIC with the given throughput in MiB/s.
func NewNIC(sim *des.Simulator, miBps float64) *NIC {
	return &NIC{res: des.NewResource(sim, miBps)}
}

// TransferStep returns a Step receiving the given bytes over `streams`
// parallel flows; more streams claim a larger fair share when the NIC is
// contended, mirroring parallel shuffle fetches.
func (n *NIC) TransferStep(bytes float64, streams int) des.Step {
	if streams < 1 {
		streams = 1
	}
	mib := bytes / (1 << 20)
	return func(done func()) {
		n.mu.Lock()
		n.bytesIn += bytes
		n.mu.Unlock()
		n.res.Use(mib, float64(streams), n.res.Capacity(), done)
	}
}

// BytesIn returns cumulative received bytes.
func (n *NIC) BytesIn() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.bytesIn
}

// RateSeries returns the receive rate in MiB/s over virtual time.
func (n *NIC) RateSeries() *stats.StepSeries { return n.res.RateSeries() }

// ErrInsufficientBuffers is the Flink startup failure when the configured
// network buffer pool cannot cover the logical channels of the job.
type ErrInsufficientBuffers struct {
	Required, Configured int
}

// Error implements error.
func (e *ErrInsufficientBuffers) Error() string {
	return fmt.Sprintf("netsim: insufficient network buffers: required %d, configured %d "+
		"(increase flink.network.buffers)", e.Required, e.Configured)
}

// BufferPool models Flink's network buffer pool: a fixed count of
// fixed-size buffers backing the logical connections between mappers and
// reducers.
type BufferPool struct {
	count int
	size  core.ByteSize
}

// NewBufferPool builds a pool of count buffers of the given size.
func NewBufferPool(count int, size core.ByteSize) *BufferPool {
	return &BufferPool{count: count, size: size}
}

// Count returns the configured number of buffers.
func (p *BufferPool) Count() int { return p.count }

// Size returns the per-buffer size.
func (p *BufferPool) Size() core.ByteSize { return p.size }

// RequiredBuffers estimates the buffers a pipelined job needs, following
// Flink's documented rule of thumb: slots-per-node² × nodes × 4. Each slot
// holds buffers for the logical channels to every slot of the repartitioned
// downstream, in both directions.
func RequiredBuffers(slotsPerNode, nodes int) int {
	return slotsPerNode * slotsPerNode * nodes * 4
}

// Reserve verifies the pool covers a job's requirement. It does not track
// per-transfer state — buffer starvation in Flink fails at job submission,
// which is what the paper had to configure around.
func (p *BufferPool) Reserve(required int) error {
	if required > p.count {
		return &ErrInsufficientBuffers{Required: required, Configured: p.count}
	}
	return nil
}
