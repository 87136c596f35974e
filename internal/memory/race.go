//go:build race

package memory

import "unsafe"

// Poison is the byte a race build writes over every buffer Put releases. A
// reader still holding a view of a released buffer — the use after release
// the one-owner contract forbids — then reads poison instead of its data, and
// the cross-engine parity tests and the benchmark's output checks fail on it
// under go test -race, besides the detector's own report of the overlap.
const Poison = 0xDB

// releaseCheck holds, in race builds, the buffers on a pool's free lists by
// the address of their first byte, so a second Put of one is caught.
type releaseCheck struct {
	free map[*byte]struct{}
}

// released poisons buf and panics if it is already on a free list; kept
// buffers are recorded until a Get reuses them. Called under the pool lock.
func (c *releaseCheck) released(buf []byte, kept bool) {
	at := unsafe.SliceData(buf)
	if _, twice := c.free[at]; twice {
		panic("memory: buffer Put twice")
	}
	if buf = buf[:cap(buf)]; len(buf) > 0 {
		// Doubling copies: one instrumented range access each, where a
		// byte loop pays the detector per byte.
		buf[0] = Poison
		for n := 1; n < len(buf); n *= 2 {
			copy(buf[n:], buf[:n])
		}
	}
	if kept {
		if c.free == nil {
			c.free = make(map[*byte]struct{})
		}
		c.free[at] = struct{}{}
	}
}

// reused records that a Get handed buf out again.
func (c *releaseCheck) reused(buf []byte) { delete(c.free, unsafe.SliceData(buf)) }
