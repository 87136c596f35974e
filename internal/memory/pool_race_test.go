//go:build race

package memory

import "testing"

// TestBufPoolPoisonsReleasedBuffers: in race builds a released buffer reads
// Poison through any view kept past its Put, and a second Put panics — the
// two ways the one-owner contract is broken.
func TestBufPoolPoisonsReleasedBuffers(t *testing.T) {
	p := &BufPool{}
	b := append(p.Get(1000), "data a reader still holds"...)
	view := b[:4]
	p.Put(b)
	for i, c := range view {
		if c != Poison {
			t.Fatalf("byte %d of a released buffer reads %#x, want the poison %#x", i, c, Poison)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second Put of the same buffer did not panic")
		}
	}()
	p.Put(b)
}
