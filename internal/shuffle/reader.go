package shuffle

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/serde"
)

// DecodeBlocks unpacks and decodes fetched blocks into one record slice per
// block, in block (map-output) order. It must run with the Settings that
// wrote the blocks — both sides of an edge resolve the same conf. Decoding
// goes through serde.DecodeAllN, whose values never alias the wire bytes (a
// block with strings is copied once into an immutable arena its records'
// strings view), so the caller may Release the blocks as soon as this
// returns.
func DecodeBlocks[R any](set Settings, codec serde.Codec[R], blocks []Block) ([][]R, error) {
	out := make([][]R, len(blocks))
	for i, b := range blocks {
		raw, err := Unpack(set, b.Bytes())
		if err != nil {
			return nil, fmt.Errorf("shuffle: block %d: %w", i, err)
		}
		recs, err := serde.DecodeAllN(codec, raw, int(b.Recs))
		if err != nil {
			return nil, fmt.Errorf("shuffle: block %d: %w", i, err)
		}
		out[i] = recs
	}
	return out, nil
}

// Fold is the one reduce-side keyed fold, over the combine table the writers
// fold with map-side: Add folds decoded batches in as they arrive (merge
// joins a record to the entry its key finds), Drain hands back one record per
// key in the order the keys were first seen. Spark's aggregation over fetched
// segments (FoldFirstSeen) and flink's GroupReduce consumer, which adds
// packets as its exchange delivers them, are both this.
type Fold[R any] struct {
	t combineTable[R]
}

// NewFold builds an empty fold. key and merge are as on a Spec.
func NewFold[R any](key Key[R], merge func(a, b R) R) *Fold[R] {
	return &Fold[R]{t: combineTable[R]{key: key, merge: merge}}
}

// Add folds a batch in. The slice is only read during the call.
func (f *Fold[R]) Add(batch []R) { f.t.addAll(batch) }

// Drain returns the folded records, which become the caller's, and leaves
// the fold empty.
func (f *Fold[R]) Drain() []R { return f.t.take() }

// FoldFirstSeen is the hash reduce-side merge: pairs fold per key with
// merge, keys keep the order they were first seen across segments — the
// reduce path Spark's aggregation uses for combined shuffles.
func FoldFirstSeen[K comparable, C any](segs [][]core.Pair[K, C], merge func(C, C) C) []core.Pair[K, C] {
	f := NewFold(PairKey[K, C](),
		func(a, b core.Pair[K, C]) core.Pair[K, C] { return core.KV(a.Key, merge(a.Value, b.Value)) })
	for _, seg := range segs {
		f.Add(seg)
	}
	return f.Drain()
}
