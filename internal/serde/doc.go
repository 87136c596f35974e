// Package serde implements the three serialization strategies the paper
// contrasts (Section IV-D):
//
//   - Java: Spark's default. Generic and reflective; every record carries a
//     type descriptor and object header, making it verbose and slow.
//   - Kryo: Spark's opt-in library serializer. Registered classes shrink the
//     per-record overhead to a small tag.
//   - TypeInfo: Flink's approach. The engine peeks into the data types up
//     front, so records are encoded schema-first with no per-record
//     overhead, and sort keys can be compared in binary form without
//     deserialization (the paper's OptimizedText trick for Tera Sort).
//
// The three styles differ by what they write per record — a fabricated
// class descriptor and object header, a one-byte tag, nothing — and by
// nothing else. How a codec is found is the same for all of them, and it is
// the thing the paper credits Flink for: Of[T] looks at the record type
// once, up front, and resolves
//
//  1. the codec registered for T (Register), else
//  2. the built-in scalar codec (string, []byte, int64, int, float64,
//     bool), else
//  3. a codec derived from T's structure (derive.go): structs field by
//     field, slices, arrays and maps element by element, the remaining
//     integer and float kinds — every part resolved by the same three rules
//     and written in its existing wire form, so a derived codec is the
//     composition PairCodec and SliceCodec would have built by hand, and
//     Of[core.Pair[K,V]] writes the bytes OfPair[K,V] writes. Derivation
//     runs once per (type, style) and is cached; per record it is closure
//     calls over field offsets, with no reflection and no allocation on
//     encode. On decode a string is a view, not a copy: DecodeAllN copies
//     a block that holds strings once into an immutable arena and every
//     string decoded from it points there, so a block costs one
//     allocation however many string fields it holds (AppendDecode skips
//     even that for bytes a receiver already keeps), and only slices
//     and maps allocate per value (maps through reflect, the only way to
//     build one).
//
// Only the parts of a type that have no structural encoding — pointers,
// interfaces, funcs, channels, complex numbers, structs with unexported
// fields, types that contain themselves — reach encoding/gob, one stream
// per record (fallback.go). That path re-sends and re-compiles type
// information for every record; it costs 10-100× a derived codec and no
// mechanism in the paper accounts for it, so it is counted: a codec reports
// its gob parts in Codec.Fallbacks, every engine adds that to
// JobMetrics.CodecFallbacks where it resolves a codec, and a test holds the
// counter at zero for every built-in workload on every engine.
//
// # Normalized keys
//
// NormKeyerFor (compose.go) emits a key's normalized form: a binary form
// whose bytes.Compare order equals the decoded order (AppendKeyInt64 for the
// signed integers), letting sorters run memcmp on packed key prefixes
// without deserializing.
//
// Moving encoded records between operators is the job of internal/shuffle
// (zero-copy Block borrow/release), and deciding how few operators there
// are to move between is the job of the operator-fusion pass in the
// dataflow lowering (internal/dataflow/fuse.go), which collapses narrow
// Map/Filter/FlatMap chains into per-batch kernels (one compiled closure
// call per exec.batch.size records) so fused records never touch a codec
// at all.
package serde
