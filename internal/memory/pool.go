package memory

import (
	"sync"
	"sync/atomic"
)

// BufPool recycles byte buffers across records, blocks, and spill runs so
// the steady-state encode/decode path performs zero per-record allocations —
// the tungsten discipline: memory is managed in reusable chunks, not churned
// through the garbage collector one object at a time.
//
// Buffers are size-classed in powers of two from minClass to maxClass;
// requests outside the classes fall through to plain allocation (they are
// rare and would only pin oversized memory in the pool). Get returns a
// zero-length slice with at least the requested capacity; Put recycles the
// buffer for a later Get. The pool is safe for concurrent use.
type BufPool struct {
	classes [poolClasses]sync.Pool
	gets    atomic.Int64
	puts    atomic.Int64
	misses  atomic.Int64 // Gets served by a fresh allocation
}

const (
	poolMinBits = 8  // 256 B — smallest pooled class
	poolMaxBits = 22 // 4 MiB — largest pooled class
	poolClasses = poolMaxBits - poolMinBits + 1
)

// DefaultPool is the process-wide buffer pool the serde and shuffle layers
// draw from. Engines share it deliberately: a buffer sealed by a shuffle
// writer on one "node" is recycled by a reader on another, exactly like a
// real deployment's slab allocator.
var DefaultPool = &BufPool{}

// classFor returns the size-class index for a capacity, or -1 when the
// request is outside the pooled range.
func classFor(n int) int {
	if n <= 0 {
		return 0
	}
	bits := 0
	for c := n - 1; c > 0; c >>= 1 {
		bits++
	}
	if bits < poolMinBits {
		return 0
	}
	if bits > poolMaxBits {
		return -1
	}
	return bits - poolMinBits
}

// Get returns a zero-length buffer with capacity ≥ n, recycled when a
// previous Put left one in n's size class.
func (p *BufPool) Get(n int) []byte {
	p.gets.Add(1)
	cls := classFor(n)
	if cls < 0 {
		p.misses.Add(1)
		return make([]byte, 0, n)
	}
	if v := p.classes[cls].Get(); v != nil {
		return v.(*poolBuf).b[:0]
	}
	p.misses.Add(1)
	return make([]byte, 0, 1<<(cls+poolMinBits))
}

// Put recycles a buffer. The caller must not touch buf afterwards; aliases
// into it (sub-slices handed to borrowers) must have been released first —
// that contract is what shuffle.Block makes explicit.
func (p *BufPool) Put(buf []byte) {
	if buf == nil {
		return
	}
	c := cap(buf)
	if c < 1<<poolMinBits || c > 1<<poolMaxBits {
		return // outside the classes: let the GC have it
	}
	cls := classFor(c)
	if cls < 0 || 1<<(cls+poolMinBits) != c {
		// Not an exact class capacity (the buffer grew past its class via
		// append): round down so a future Get's capacity promise holds.
		for cls = poolClasses - 1; cls >= 0; cls-- {
			if 1<<(cls+poolMinBits) <= c {
				break
			}
		}
		if cls < 0 {
			return
		}
	}
	p.puts.Add(1)
	p.classes[cls].Put(&poolBuf{b: buf[:0]})
}

// poolBuf boxes a slice so sync.Pool stores a pointer-shaped value
// (avoiding an allocation per Put from interface conversion).
type poolBuf struct{ b []byte }

// Stats reports pool traffic: total Gets, Puts, and the Gets that missed
// the pool and allocated. A steady-state hit rate near 1 is the zero-alloc
// goal; tests assert on it.
func (p *BufPool) Stats() (gets, puts, misses int64) {
	return p.gets.Load(), p.puts.Load(), p.misses.Load()
}
