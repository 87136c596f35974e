package shuffle

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/serde"
)

// TestDecodedRecordsOutliveTheirBlock is the sensitivity check behind the
// readers' "release right after decode": a fetched block's decoded strings
// are views of one copy of the block, never of the block itself. It decodes
// a pooled block of TeraSort-shaped records under each engine's default
// codec style, releases the block, takes the same buffer back out of the
// pool as the next Get of that size class would, scribbles over it — what
// the next task's writer does — and checks the records. Without the copy in
// serde.DecodeAllN the strings are views of the recycled buffer and read the
// scribble.
func TestDecodedRecordsOutliveTheirBlock(t *testing.T) {
	recs := make([]core.Pair[string, string], 200)
	for i := range recs {
		recs[i] = core.KV(fmt.Sprintf("key%07d", i), fmt.Sprintf("value of record %d, padded to a TeraSort-like width ........", i))
	}
	styles := []struct {
		engine string
		style  serde.Style
	}{{"spark", serde.Java}, {"flink", serde.TypeInfo}, {"mapreduce", serde.Java}}
	for _, e := range styles {
		codec := serde.OfPair[string, string](e.style)
		wire := serde.EncodeAll(codec, nil, recs)
		reused := false
		// The next Get of a class takes the buffer Put last. Only a Put the
		// pool's cap drops breaks that — the first attempt's buffer may be
		// a fresh one the full pool refuses — and the second attempt's
		// block is the buffer the first one's Get took out of the pool.
		for attempt := 0; attempt < 2 && !reused; attempt++ {
			blk := PooledBlock(append(memory.DefaultPool.Get(len(wire)), wire...), int64(len(wire)), int64(len(recs)))
			at := unsafe.SliceData(blk.Bytes())
			decoded, err := DecodeBlocks(Settings{}, codec, []Block{blk})
			if err != nil {
				t.Fatalf("%s: %v", e.engine, err)
			}
			blk.Release()
			next := memory.DefaultPool.Get(len(wire))
			if reused = unsafe.SliceData(next[:1]) == at; reused {
				next = next[:cap(next)]
				for i := range next {
					next[i] = 0xA5
				}
				if !reflect.DeepEqual(decoded[0], recs) {
					t.Errorf("%s: records decoded from a released block changed when its buffer was reused", e.engine)
				}
			}
			memory.DefaultPool.Put(next)
		}
		if !reused {
			t.Fatalf("%s: the pool did not hand the released buffer back", e.engine)
		}
	}
}

// TestDecodeBlocksCopiesOnlyRecycledBytes: DecodeBlocks copies a block with
// strings before decoding it only when its bytes may be written again — a
// pooled block, or a lent view of one. A kept block (a remote fetch's Copy,
// spark's kept map output, a view of either) and a frame decompressed into a
// fresh buffer are decoded in place. Counted per block decode: the result's
// slice of segments, the records' array, and then the copy or the
// decompressed buffer.
func TestDecodeBlocksCopiesOnlyRecycledBytes(t *testing.T) {
	recs := make([]core.Pair[string, string], 256)
	for i := range recs {
		recs[i] = core.KV(fmt.Sprintf("key%07d", i), "a ninety byte payload, repeated to compress well ........")
	}
	codec := serde.OfPair[string, string](serde.Java)
	wire := serde.EncodeAll(codec, nil, recs)
	lz := Settings{Compress: CompressorFor("lz")}
	pooled := PooledBlock(append(memory.DefaultPool.Get(len(wire)), wire...), int64(len(wire)), int64(len(recs)))
	defer pooled.Release()
	kept := pooled.Copy()
	framed := seal(lz, append(memory.DefaultPool.Get(len(wire)), wire...), int64(len(recs)))
	frame := framed.Bytes()
	if frame[0] != frameLZ {
		t.Fatal("the records did not compress")
	}
	for _, c := range []struct {
		name string
		set  Settings
		blk  Block
		want float64
	}{
		{"pooled", Settings{}, pooled, 3},
		{"lent view of a pooled block", Settings{}, pooled.Borrow(), 3},
		{"kept", Settings{}, kept, 2},
		{"borrowed view of a kept block", Settings{}, kept.Borrow(), 2},
		{"lz frame", lz, framed, 3},
		{"lent lz frame", lz, LentBlock(frame, int64(len(wire)), int64(len(recs))), 3},
	} {
		blocks := []Block{c.blk}
		segs, err := DecodeBlocks(c.set, codec, blocks)
		if err != nil || !reflect.DeepEqual(segs[0], recs) {
			t.Fatalf("%s: the decoded records differ (%v)", c.name, err)
		}
		got := testing.AllocsPerRun(20, func() { _, _ = DecodeBlocks(c.set, codec, blocks) })
		if got != c.want {
			t.Errorf("%s: %v allocations to decode a block, want %v", c.name, got, c.want)
		}
	}
}
