// Package memory models the two memory-management designs the paper
// contrasts (Section VIII, "Memory management"):
//
//   - Heap: Spark's model. All executor memory is one JVM heap carved into
//     storage and shuffle fractions; lots of live objects raise garbage
//     collection overhead, and overallocation kills the job.
//   - Managed: Flink's model. A fixed pool of fixed-size memory segments
//     (optionally off-heap) backs sorting, hash tables and caching;
//     operators that run out of segments spill to disk instead of dying —
//     except operators like CoGroup's solution set that must be in memory.
//
// Both engines consult these models for real: allocations are tracked,
// spill decisions and out-of-memory failures actually happen at the
// recorded thresholds, and the GC-pressure accounting feeds the paper-scale
// simulator.
//
// Underneath both models the bytes themselves — encode buffers, shuffle
// blocks, spill runs — come from BufPool (pool.go), DefaultPool for the
// whole process. Its buffers outlive the collector: a released buffer waits
// on its size class's free list until the next Get of that class, however
// many GC cycles pass, which is how Flink's network buffers and managed
// segments behave and how a sync.Pool does not. What the free lists hold is
// capped at PoolCap, 64 MiB — the network memory of this repo's flink
// configuration (2048 buffers of 32 KiB) — and a release past the cap is
// left to the GC. The retained bytes are charged to no engine's budget.
//
// A pooled buffer has one owner at a time. The owner releases it once, after
// the last read through it or any slice of it; handing it on (a shuffle
// block emitted, a spill run stored) hands the duty on. Race builds check
// this: a released buffer is overwritten with Poison, and a second release
// panics (race.go).
package memory

import (
	"fmt"
	"sync"
)

// ErrOutOfMemory is returned when a reservation cannot fit. For the heap
// model this is the JVM OutOfMemoryError that, as the paper puts it,
// "will immediately destroy the JVM".
type ErrOutOfMemory struct {
	Pool      string
	Requested int64
	Free      int64
}

// Error implements error.
func (e *ErrOutOfMemory) Error() string {
	return fmt.Sprintf("memory: %s pool out of memory: requested %d bytes, %d free", e.Pool, e.Requested, e.Free)
}

// Heap models a JVM heap split into storage, shuffle/execution and user
// regions by static fractions, as Spark 1.5 did.
type Heap struct {
	mu sync.Mutex

	capacity        int64
	storageCap      int64
	shuffleCap      int64
	storageUsed     int64
	shuffleUsed     int64
	otherUsed       int64
	allocs          int64
	gcCycles        int64
	bytesReclaimed  int64
	peakUsed        int64
	evictionHandler func(need int64) int64
}

// NewHeap builds a heap of the given capacity with the storage and shuffle
// fractions of the paper's configuration tables.
func NewHeap(capacity int64, storageFraction, shuffleFraction float64) *Heap {
	if capacity <= 0 {
		panic("memory: heap capacity must be positive")
	}
	return &Heap{
		capacity:   capacity,
		storageCap: int64(float64(capacity) * storageFraction),
		shuffleCap: int64(float64(capacity) * shuffleFraction),
	}
}

// OnStorageEviction registers a callback invoked when storage needs room;
// it must drop cached blocks and return the bytes released WITHOUT calling
// FreeStorage itself (the heap adjusts its accounting with the returned
// amount). The spark engine's block manager registers its LRU eviction here.
func (h *Heap) OnStorageEviction(fn func(need int64) int64) {
	h.mu.Lock()
	h.evictionHandler = fn
	h.mu.Unlock()
}

// Capacity returns the configured heap size.
func (h *Heap) Capacity() int64 { return h.capacity }

// AllocStorage reserves cache space for a persisted RDD partition. When the
// storage region is full it first asks the eviction handler to make room;
// if still short it fails (the caller then degrades to disk or recompute).
func (h *Heap) AllocStorage(n int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.storageUsed+n > h.storageCap && h.evictionHandler != nil {
		need := h.storageUsed + n - h.storageCap
		h.mu.Unlock()
		freed := h.evictionHandler(need)
		h.mu.Lock()
		h.storageUsed -= freed
		h.gcCycles++
		h.bytesReclaimed += freed
		if h.storageUsed < 0 {
			h.storageUsed = 0
		}
	}
	if h.storageUsed+n > h.storageCap {
		return &ErrOutOfMemory{Pool: "storage", Requested: n, Free: h.storageCap - h.storageUsed}
	}
	h.storageUsed += n
	h.allocs++
	h.trackPeak()
	return nil
}

// FreeStorage releases cache space.
func (h *Heap) FreeStorage(n int64) {
	h.mu.Lock()
	h.storageUsed -= n
	if h.storageUsed < 0 {
		h.storageUsed = 0
	}
	h.mu.Unlock()
}

// AllocShuffle reserves execution memory for shuffle sorting/aggregation.
// It reports false when the region is exhausted, which tells the tungsten
// sorter to spill — never an error, matching Spark's spill-based sorter.
func (h *Heap) AllocShuffle(n int64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.shuffleUsed+n > h.shuffleCap {
		return false
	}
	h.shuffleUsed += n
	h.allocs++
	h.trackPeak()
	return true
}

// FreeShuffle releases execution memory.
func (h *Heap) FreeShuffle(n int64) {
	h.mu.Lock()
	h.shuffleUsed -= n
	if h.shuffleUsed < 0 {
		h.shuffleUsed = 0
	}
	h.mu.Unlock()
}

// AllocUser reserves unmanaged heap for user data structures (e.g.
// collectAsMap results). Unlike shuffle memory there is no spill path: if
// it does not fit in the whole remaining heap the job dies, which is how
// the paper's large-graph Spark runs fail before edge partitions are
// doubled.
func (h *Heap) AllocUser(n int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	free := h.capacity - h.storageUsed - h.shuffleUsed - h.otherUsed
	if n > free {
		return &ErrOutOfMemory{Pool: "heap", Requested: n, Free: free}
	}
	h.otherUsed += n
	h.allocs++
	h.trackPeak()
	return nil
}

// FreeUser releases unmanaged heap.
func (h *Heap) FreeUser(n int64) {
	h.mu.Lock()
	h.otherUsed -= n
	if h.otherUsed < 0 {
		h.otherUsed = 0
	}
	h.mu.Unlock()
}

func (h *Heap) trackPeak() {
	if u := h.storageUsed + h.shuffleUsed + h.otherUsed; u > h.peakUsed {
		h.peakUsed = u
	}
}

// Used returns the current total live bytes.
func (h *Heap) Used() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.storageUsed + h.shuffleUsed + h.otherUsed
}

// Peak returns the high-water mark of live bytes.
func (h *Heap) Peak() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peakUsed
}

// GCPressure estimates the fraction of CPU time lost to garbage collection
// at the current occupancy. The model is the paper's qualitative claim made
// quantitative: large heaps overwhelmed with many live objects suffer; cost
// grows superlinearly once the heap passes ~60% occupancy.
func (h *Heap) GCPressure() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	occ := float64(h.storageUsed+h.shuffleUsed+h.otherUsed) / float64(h.capacity)
	return GCPressureAt(occ)
}

// GCPressureAt is the pure occupancy→overhead curve, exported so the
// paper-scale simulator can reuse the identical model.
func GCPressureAt(occupancy float64) float64 {
	if occupancy <= 0.6 {
		return 0.02 * occupancy / 0.6
	}
	over := occupancy - 0.6
	return 0.02 + 0.45*over*over/(0.4*0.4)
}

// Stats is a snapshot of heap accounting for metrics reports.
type Stats struct {
	Capacity, StorageUsed, ShuffleUsed, OtherUsed, Peak int64
	Allocs, GCCycles, BytesReclaimed                    int64
}

// Snapshot returns current accounting.
func (h *Heap) Snapshot() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Stats{
		Capacity:       h.capacity,
		StorageUsed:    h.storageUsed,
		ShuffleUsed:    h.shuffleUsed,
		OtherUsed:      h.otherUsed,
		Peak:           h.peakUsed,
		Allocs:         h.allocs,
		GCCycles:       h.gcCycles,
		BytesReclaimed: h.bytesReclaimed,
	}
}
