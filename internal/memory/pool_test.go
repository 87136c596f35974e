package memory

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestBufPoolRecycles: a Put buffer is the next Get of its class, every
// time — race builds included, where a sync.Pool dropped a quarter of its
// Puts on purpose.
func TestBufPoolRecycles(t *testing.T) {
	p := &BufPool{}
	b := p.Get(1000)
	if cap(b) < 1000 || len(b) != 0 {
		t.Fatalf("Get(1000) = len %d cap %d", len(b), cap(b))
	}
	p.Put(b)
	b2 := p.Get(900) // same class; must hit the recycled buffer
	if cap(b2) < 900 || unsafe.SliceData(b2) != unsafe.SliceData(b) {
		t.Fatalf("Get(900) cap %d, recycled %v", cap(b2), unsafe.SliceData(b2) == unsafe.SliceData(b))
	}
	gets, puts, misses := p.Stats()
	if gets != 2 || puts != 1 {
		t.Fatalf("stats gets=%d puts=%d", gets, puts)
	}
	if misses != 1 {
		t.Fatalf("misses=%d, want 1 (second Get should recycle)", misses)
	}
}

func TestBufPoolOutOfClassRequests(t *testing.T) {
	p := &BufPool{}
	big := p.Get(64 << 20) // beyond maxClass: plain allocation
	if cap(big) < 64<<20 {
		t.Fatal("huge Get under-allocated")
	}
	p.Put(big) // must be dropped, not pooled
	small := p.Get(1)
	if cap(small) < 1 {
		t.Fatal("tiny Get under-allocated")
	}
	// A buffer that grew past its class must round down so Get's capacity
	// promise holds.
	odd := make([]byte, 0, 1000)
	p.Put(odd)
	got := p.Get(512)
	if cap(got) < 512 {
		t.Fatalf("Get(512) after odd Put: cap %d", cap(got))
	}
}

func TestBufPoolZeroAllocSteadyState(t *testing.T) {
	p := &BufPool{}
	src := make([]byte, 100)
	allocs := testing.AllocsPerRun(1000, func() {
		b := p.Get(4096)
		b = append(b, src...)
		p.Put(b)
	})
	// A warm round trip allocates nothing: the free list holds the slice
	// itself, with no box around it.
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f/op", allocs)
	}
}

// TestBufPoolSurvivesGC: the collector does not empty the pool. A sync.Pool
// drops what it holds within two GC cycles, and a benchmark job runs several.
func TestBufPoolSurvivesGC(t *testing.T) {
	p := &BufPool{}
	b := p.Get(64 << 10)
	p.Put(b)
	runtime.GC()
	runtime.GC()
	got := p.Get(64 << 10)
	if _, _, misses := p.Stats(); misses != 1 || unsafe.SliceData(got) != unsafe.SliceData(b) {
		t.Fatalf("Get after two GC cycles missed the released buffer (misses = %d)", misses)
	}
}

// TestBufPoolRetainsAtMostPoolCap: the free lists never hold more than
// PoolCap bytes; a Put past it is dropped, counted, and left to the GC.
func TestBufPoolRetainsAtMostPoolCap(t *testing.T) {
	p := &BufPool{}
	const size = 4 << 20
	held := make([][]byte, PoolCap/size+1)
	for i := range held {
		held[i] = p.Get(size)
	}
	for i, b := range held {
		p.Put(b)
		if r := p.Retained(); r > PoolCap {
			t.Fatalf("after %d Puts the pool retains %d bytes, cap %d", i+1, r, PoolCap)
		}
	}
	if r, d := p.Retained(), p.Dropped(); r != PoolCap || d != 1 {
		t.Fatalf("retained %d, dropped %d; want %d and 1", r, d, PoolCap)
	}
	if _, puts, _ := p.Stats(); puts != int64(len(held)) {
		t.Fatalf("puts = %d, want %d (a dropped Put still counts)", puts, len(held))
	}
	for range held[1:] {
		p.Get(size)
	}
	if r := p.Retained(); r != 0 {
		t.Fatalf("after taking every kept buffer back the pool retains %d bytes", r)
	}
	if _, _, misses := p.Stats(); misses != int64(len(held)) {
		t.Fatalf("misses = %d, want %d (the first round only)", misses, len(held))
	}
}

// TestBufPoolConcurrentBorrowRelease hammers one pool from many goroutines
// (the shuffle-writer/reader pattern: borrow, fill, hand off, release) under
// the race detector. Each goroutine stamps its buffers with its own id and
// re-checks the stamp before Put — a recycled buffer handed to two owners
// at once shows up as a stamp mismatch or a detector report.
func TestBufPoolConcurrentBorrowRelease(t *testing.T) {
	p := &BufPool{}
	const (
		workers = 8
		rounds  = 2000
	)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			sizes := []int{300, 4 << 10, 64 << 10, 300} // cross size classes
			held := make([][]byte, 0, 4)
			for r := 0; r < rounds; r++ {
				b := p.Get(sizes[r%len(sizes)])
				b = b[:16]
				for i := range b {
					b[i] = id
				}
				held = append(held, b)
				if len(held) == cap(held) || r == rounds-1 {
					for _, h := range held {
						for _, c := range h {
							if c != id {
								select {
								case errs <- "buffer shared between owners":
								default:
								}
								return
							}
						}
						p.Put(h)
					}
					held = held[:0]
				}
			}
		}(byte(w + 1))
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	gets, puts, _ := p.Stats()
	if gets != workers*rounds || puts != workers*rounds {
		t.Fatalf("stats gets=%d puts=%d, want %d each", gets, puts, workers*rounds)
	}
}
