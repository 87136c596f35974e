package memory

import (
	"math/bits"
	"sync"
)

// BufPool recycles byte buffers across records, blocks, and spill runs so
// the steady-state encode/decode path performs zero per-record allocations —
// the tungsten discipline: memory is managed in reusable chunks, not churned
// through the garbage collector one object at a time.
//
// Buffers are size-classed in powers of two from 256 B to 4 MiB; requests
// outside the classes fall through to plain allocation (they are rare and
// would only pin oversized memory in the pool). Get returns a zero-length
// slice with at least the requested capacity; Put recycles the buffer for a
// later Get. The pool is safe for concurrent use.
//
// Each class is a LIFO free list under the pool's one lock, so the collector
// never empties the pool (a sync.Pool is emptied within two GC cycles, which a
// job runs several of) and the next Get of a class receives the buffer
// released last, still warm in cache. The free lists hold at most PoolCap
// bytes: a Put that would retain more is dropped, counted, and left to the
// collector. Buffers have one owner at a time (see the package comment).
type BufPool struct {
	mu       sync.Mutex
	free     [poolClasses][][]byte
	retained int64
	gets     int64
	puts     int64
	misses   int64 // Gets served by a fresh allocation
	drops    int64 // Puts the cap refused
	check    releaseCheck
}

const (
	poolMinBits = 8  // 256 B — smallest pooled class
	poolMaxBits = 22 // 4 MiB — largest pooled class
	poolClasses = poolMaxBits - poolMinBits + 1
)

// PoolCap bounds the bytes a BufPool retains: 192 MiB, one flink network
// budget for each of the three engines a process may host. That budget is
// 64 MiB, the network memory of this repo's flink configuration
// (flink.network.buffers 2048 × buffer.size 32 KiB): what Flink allocates
// once and recycles for its exchanges. DefaultPool is shared, so the cap has
// to hold every engine's working set at once; a cap one engine's set can fill
// lets that engine's buffers evict the next one's, and every engine's
// allocation counts then depend on what ran before it. Measured on the
// benchmark's terasort (4 MiB blocks), what each engine's first job leaves
// in the pool: spark ≈ 13 MiB of its writers' buffers (its map outputs leave
// the pool, shuffle.KeepAll), flink ≈ 32 MiB (≈ 514 network buffers of 64
// KiB) and mapreduce ≈ 69 MiB, mostly 4 MiB sort blocks; ≈ 114 MiB in all.
// On wordcount the three leave ≈ 46 MiB.
const PoolCap = 3 * (64 << 20)

// DefaultPool is the process-wide buffer pool the serde and shuffle layers
// draw from. Engines share it deliberately: a buffer sealed by a shuffle
// writer on one "node" is recycled by a reader on another, exactly like a
// real deployment's slab allocator.
var DefaultPool = &BufPool{}

// classFor returns the size class a Get of n bytes draws from — the
// smallest whose buffers hold n — or -1 when n is beyond the largest.
func classFor(n int) int {
	if n <= 1<<poolMinBits {
		return 0
	}
	if b := bits.Len(uint(n - 1)); b <= poolMaxBits {
		return b - poolMinBits
	}
	return -1
}

// putClass returns the size class a released buffer of capacity c files
// under — the largest whose size c covers, so a buffer that grew past its
// class by append still keeps a later Get's capacity promise — or -1 when c
// is outside the classes.
func putClass(c int) int {
	if c < 1<<poolMinBits || c > 1<<poolMaxBits {
		return -1
	}
	return bits.Len(uint(c)) - 1 - poolMinBits
}

// Get returns a zero-length buffer with capacity ≥ n, recycled when a
// previous Put left one in n's size class.
func (p *BufPool) Get(n int) []byte {
	cls := classFor(n)
	p.mu.Lock()
	p.gets++
	if cls >= 0 {
		if free := p.free[cls]; len(free) > 0 {
			buf := free[len(free)-1]
			free[len(free)-1] = nil
			p.free[cls] = free[:len(free)-1]
			p.retained -= int64(cap(buf))
			p.check.reused(buf)
			p.mu.Unlock()
			return buf
		}
	}
	p.misses++
	p.mu.Unlock()
	if cls < 0 {
		return make([]byte, 0, n)
	}
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
	cls := putClass(c)
	p.mu.Lock()
	defer p.mu.Unlock()
	keep := cls >= 0 && p.retained+int64(c) <= PoolCap
	p.check.released(buf, keep)
	if cls < 0 {
		return
	}
	p.puts++
	if !keep {
		p.drops++
		return
	}
	p.free[cls] = append(p.free[cls], buf[:0])
	p.retained += int64(c)
}

// Stats reports pool traffic: total Gets, Puts, and the Gets that missed
// the pool and allocated. A steady-state hit rate near 1 is the zero-alloc
// goal; tests assert on it.
func (p *BufPool) Stats() (gets, puts, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.puts, p.misses
}

// Retained reports the bytes on the free lists; it never exceeds PoolCap.
func (p *BufPool) Retained() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.retained
}

// Dropped reports how many in-class Puts the cap refused.
func (p *BufPool) Dropped() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drops
}
