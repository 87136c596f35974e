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
		// sync.Pool may hand a Put buffer to another Get or drop it (the
		// race detector drops a quarter on purpose): retry until the Get
		// after the Release returns the block's own buffer.
		for attempt := 0; attempt < 100 && !reused; attempt++ {
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
			t.Skipf("%s: the pool never handed the released buffer back", e.engine)
		}
	}
}
