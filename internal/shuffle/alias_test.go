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
