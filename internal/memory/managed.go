package memory

import (
	"errors"
	"fmt"
	"sync"
)

// ErrSolutionSetTooLarge reports that an operator which must keep its state
// fully in managed memory (Flink's CoGroup solution set) exceeded the pool.
// This is the failure mode behind the "no" entries of the paper's Table VII.
var ErrSolutionSetTooLarge = errors.New("memory: in-memory solution set exceeds managed pool")

// SegmentSize is Flink's memory segment granularity (32 KiB), also the
// default network/shuffle buffer size in the paper's tables.
const SegmentSize = 32 * 1024

// Managed models Flink's managed memory: a fixed pool of equal segments,
// sized by taskmanager.memory × memory.fraction. Operators acquire
// segments; when the pool runs dry they are told to spill (the paper: "most
// of the operators are implemented so that they can survive with very
// little memory, spilling to disk when necessary").
type Managed struct {
	mu sync.Mutex

	totalSegments int
	freeSegments  int
	peakInUse     int
	acquires      int64
	spillSignals  int64
}

// NewManaged builds a managed pool from a total memory budget and the
// managed fraction, as flink.taskmanager.memory.fraction does.
func NewManaged(total int64, fraction float64) *Managed {
	n := int(float64(total) * fraction / SegmentSize)
	if n < 1 {
		n = 1
	}
	return &Managed{totalSegments: n, freeSegments: n}
}

// TotalSegments returns the pool size in segments.
func (m *Managed) TotalSegments() int { return m.totalSegments }

// Acquire takes up to want segments and returns how many were granted
// (possibly fewer, never zero unless want<=0 or the pool is empty). A
// shortfall is a spill signal, counted for metrics.
func (m *Managed) Acquire(want int) int {
	if want <= 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	got := want
	if got > m.freeSegments {
		got = m.freeSegments
		m.spillSignals++
	}
	m.freeSegments -= got
	m.acquires++
	if used := m.totalSegments - m.freeSegments; used > m.peakInUse {
		m.peakInUse = used
	}
	return got
}

// MustAcquire takes exactly want segments or fails. Operators that cannot
// spill — the paper singles out CoGroup building the delta-iteration
// solution set in memory — use this and crash the job on shortage,
// reproducing the Table VII failures.
func (m *Managed) MustAcquire(want int, operator string) error {
	if want <= 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if want > m.freeSegments {
		return fmt.Errorf("memory: operator %s needs %d segments, only %d free: %w",
			operator, want, m.freeSegments, ErrSolutionSetTooLarge)
	}
	m.freeSegments -= want
	m.acquires++
	if used := m.totalSegments - m.freeSegments; used > m.peakInUse {
		m.peakInUse = used
	}
	return nil
}

// Release returns segments to the pool.
func (m *Managed) Release(n int) {
	if n <= 0 {
		return
	}
	m.mu.Lock()
	m.freeSegments += n
	if m.freeSegments > m.totalSegments {
		m.freeSegments = m.totalSegments
	}
	m.mu.Unlock()
}

// Free returns the currently available segments.
func (m *Managed) Free() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.freeSegments
}

// SpillSignals returns how many acquisitions came up short — each one is a
// sorter spill in the flink engine.
func (m *Managed) SpillSignals() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.spillSignals
}

// PeakInUse returns the segment high-water mark.
func (m *Managed) PeakInUse() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peakInUse
}

// GCPressure returns the GC overhead contributed by the pool: it occupies
// the heap but as few large long-lived segments, a quarter of the
// object-churn cost of the same bytes on a Spark-style heap.
func (m *Managed) GCPressure() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	occ := float64(m.totalSegments-m.freeSegments) / float64(m.totalSegments)
	return GCPressureAt(occ) * 0.25
}
