package memory

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestHeapRegions(t *testing.T) {
	h := NewHeap(1000, 0.6, 0.2)
	if err := h.AllocStorage(600); err != nil {
		t.Fatalf("storage alloc within fraction failed: %v", err)
	}
	if err := h.AllocStorage(1); err == nil {
		t.Error("storage alloc beyond fraction should fail without evictor")
	}
	if !h.AllocShuffle(200) {
		t.Error("shuffle alloc within fraction failed")
	}
	if h.AllocShuffle(1) {
		t.Error("shuffle alloc beyond fraction should signal spill")
	}
	h.FreeShuffle(200)
	if !h.AllocShuffle(150) {
		t.Error("shuffle alloc after free failed")
	}
}

func TestHeapUserOOM(t *testing.T) {
	h := NewHeap(1000, 0.6, 0.2)
	if err := h.AllocUser(900); err != nil {
		t.Fatalf("user alloc should fit in empty heap: %v", err)
	}
	err := h.AllocUser(200)
	if err == nil {
		t.Fatal("over-allocating user memory should kill the job")
	}
	var oom *ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("error should be *ErrOutOfMemory, got %T", err)
	}
	if oom.Pool != "heap" {
		t.Errorf("pool = %q, want heap", oom.Pool)
	}
}

func TestHeapEviction(t *testing.T) {
	h := NewHeap(1000, 0.5, 0.2)
	evicted := int64(0)
	h.OnStorageEviction(func(need int64) int64 {
		evicted += need
		return need // pretend we dropped exactly enough blocks
	})
	if err := h.AllocStorage(500); err != nil {
		t.Fatal(err)
	}
	if err := h.AllocStorage(100); err != nil {
		t.Fatalf("alloc with evictor should succeed: %v", err)
	}
	if evicted != 100 {
		t.Errorf("evicted %d bytes, want 100", evicted)
	}
	if got := h.Snapshot().GCCycles; got != 1 {
		t.Errorf("gc cycles = %d, want 1", got)
	}
}

func TestHeapPeakTracking(t *testing.T) {
	h := NewHeap(1000, 0.6, 0.2)
	_ = h.AllocUser(400)
	h.FreeUser(400)
	_ = h.AllocUser(100)
	if h.Peak() != 400 {
		t.Errorf("peak = %d, want 400", h.Peak())
	}
	if h.Used() != 100 {
		t.Errorf("used = %d, want 100", h.Used())
	}
}

func TestGCPressureCurve(t *testing.T) {
	if GCPressureAt(0) != 0 {
		t.Error("empty heap should have zero GC pressure")
	}
	low := GCPressureAt(0.3)
	mid := GCPressureAt(0.7)
	high := GCPressureAt(0.95)
	if !(low < mid && mid < high) {
		t.Errorf("GC pressure must grow with occupancy: %v %v %v", low, mid, high)
	}
	if high < 0.1 {
		t.Errorf("near-full heap should have substantial GC pressure, got %v", high)
	}
	f := func(a, b uint8) bool {
		x, y := float64(a)/255, float64(b)/255
		if x > y {
			x, y = y, x
		}
		return GCPressureAt(x) <= GCPressureAt(y)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("GC pressure not monotone: %v", err)
	}
}

func TestHeapConcurrentAccounting(t *testing.T) {
	h := NewHeap(1<<30, 0.6, 0.2)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if h.AllocShuffle(1024) {
					h.FreeShuffle(1024)
				}
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().ShuffleUsed; got != 0 {
		t.Errorf("shuffle bytes leaked: %d", got)
	}
}

func TestManagedAcquireRelease(t *testing.T) {
	m := NewManaged(10*SegmentSize, 1.0)
	if m.TotalSegments() != 10 {
		t.Fatalf("segments = %d, want 10", m.TotalSegments())
	}
	got := m.Acquire(4)
	if got != 4 || m.Free() != 6 {
		t.Errorf("Acquire(4) = %d free=%d", got, m.Free())
	}
	// Asking for more than free grants the remainder and signals a spill.
	got = m.Acquire(8)
	if got != 6 {
		t.Errorf("Acquire(8) with 6 free = %d, want 6", got)
	}
	if m.SpillSignals() != 1 {
		t.Errorf("spill signals = %d, want 1", m.SpillSignals())
	}
	m.Release(10)
	if m.Free() != 10 {
		t.Errorf("free after release = %d, want 10", m.Free())
	}
}

func TestManagedMustAcquireFailure(t *testing.T) {
	m := NewManaged(4*SegmentSize, 1.0)
	if err := m.MustAcquire(3, "CoGroup"); err != nil {
		t.Fatalf("MustAcquire within pool failed: %v", err)
	}
	err := m.MustAcquire(2, "CoGroup (solution set)")
	if err == nil {
		t.Fatal("MustAcquire beyond pool must fail — this is the Table VII crash")
	}
	if !errors.Is(err, ErrSolutionSetTooLarge) {
		t.Errorf("error should wrap ErrSolutionSetTooLarge, got %v", err)
	}
}

func TestManagedGCPressure(t *testing.T) {
	on := NewManaged(100*SegmentSize, 1.0)
	on.Acquire(90)
	if on.GCPressure() <= 0 {
		t.Error("on-heap pool at 90% should contribute GC pressure")
	}
	heap := NewHeap(100*SegmentSize, 0.6, 0.2)
	_ = heap.AllocUser(90 * SegmentSize)
	if on.GCPressure() >= heap.GCPressure() {
		t.Error("managed segments must be cheaper for GC than heap objects")
	}
}

func TestManagedReleaseClampsAtTotal(t *testing.T) {
	m := NewManaged(5*SegmentSize, 1.0)
	m.Release(100)
	if m.Free() != 5 {
		t.Errorf("free = %d, want clamp at 5", m.Free())
	}
}

func TestNewHeapPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHeap(0) should panic")
		}
	}()
	NewHeap(0, 0.5, 0.2)
}

func TestManagedPeak(t *testing.T) {
	m := NewManaged(8*SegmentSize, 1.0)
	m.Acquire(5)
	m.Release(5)
	m.Acquire(2)
	if m.PeakInUse() != 5 {
		t.Errorf("peak = %d, want 5", m.PeakInUse())
	}
}
