package shuffle

import (
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/serde"
)

// Kind selects the shuffle implementation.
type Kind int

// Shuffle strategies.
const (
	// Hash is the bucketed, optionally pipelined repartition (Flink's
	// exchange, Spark's legacy hash shuffle manager).
	Hash Kind = iota
	// Sort is the spill-and-merge shuffle (Hadoop's map output pipeline,
	// Spark's tungsten-sort).
	Sort
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Sort {
		return "sort"
	}
	return "hash"
}

// ParseKind maps a configuration string to a Kind; anything but "hash" and
// "sort" (including "") keeps the engine's default.
func ParseKind(s string, def Kind) Kind {
	switch s {
	case "hash":
		return Hash
	case "sort":
		return Sort
	default:
		return def
	}
}

// Settings is the per-job shuffle configuration an engine resolves once
// from core conf keys and hands to every Writer and reader.
type Settings struct {
	// Kind is the effective strategy after applying core.ShuffleStrategy
	// over the engine default.
	Kind Kind
	// Compress is the block codec; nil stores blocks raw and unframed.
	Compress Compressor
	// SpillBytes caps the encoded bytes a sort writer holds before it
	// spills a run (core.ShuffleSpillThreshold; 0 = no byte cap).
	SpillBytes int64
	// SpillRecs caps held records before a sort-writer spill (engine
	// defaults, e.g. MapReduce's io.sort.records; 0 = no record cap). Under
	// a pairwise combiner the held records are one per distinct key.
	SpillRecs int
	// FlushBytes is the hash writer's per-bucket pipelined flush threshold
	// (0 = buckets only flush at Close — a materialized shuffle).
	FlushBytes int64
}

// FromConf resolves the shared shuffle conf keys over an engine's default
// strategy. SpillRecs and FlushBytes stay zero; engines fill them from
// their own knobs.
func FromConf(conf *core.Config, def Kind) Settings {
	return Settings{
		Kind:       ParseKind(conf.String(core.ShuffleStrategy, ""), def),
		Compress:   CompressorFor(conf.String(core.ShuffleCompress, "none")),
		SpillBytes: int64(conf.Bytes(core.ShuffleSpillThreshold, 0)),
	}
}

// Block is one finished shuffle segment for one reduce partition: the wire
// bytes (possibly compressed/framed) plus the accounting the engines route
// into metrics. The byte storage is private — access goes through Bytes —
// so the zero-copy local-read path is a typed borrow/release contract
// instead of an aliasing convention:
//
//   - A writer SEALS a pool-backed block and hands ownership to Emit.
//   - A local read BORROWS the sealed bytes (Borrow): no copy, no release
//     rights — the owner's buffer stays live.
//   - A remote (or simulated-remote) read COPIES (CopyPooled) into a fresh
//     pooled buffer, keeping the local/remote byte-accounting rule honest.
//   - Whoever holds ownership calls Release when done; pool-backed storage
//     returns to memory.DefaultPool for the next writer.
type Block struct {
	data   []byte
	Raw    int64 // serialized bytes before compression
	Recs   int64 // record count
	pooled bool  // storage came from memory.DefaultPool; Release recycles it
}

// OwnedBlock wraps bytes the caller owns outright (e.g. borrowed DFS block
// storage). Release is a no-op.
func OwnedBlock(data []byte, raw, recs int64) Block {
	return Block{data: data, Raw: raw, Recs: recs}
}

// PooledBlock wraps a buffer obtained from memory.DefaultPool; Release
// returns the storage to the pool.
func PooledBlock(data []byte, raw, recs int64) Block {
	return Block{data: data, Raw: raw, Recs: recs, pooled: true}
}

// Bytes exposes the wire form. The slice is valid until the block's owner
// releases it; borrowers must not mutate it.
func (b Block) Bytes() []byte { return b.data }

// Len returns the wire length.
func (b Block) Len() int { return len(b.data) }

// Borrow returns a zero-copy view without release rights — the local-read
// path. Releasing the borrow is a no-op; the owner's Release still governs
// the storage.
func (b Block) Borrow() Block {
	return Block{data: b.data, Raw: b.Raw, Recs: b.Recs}
}

// CopyPooled deep-copies the block into a fresh pooled buffer — the remote
// fetch path. The copy is independently releasable.
func (b Block) CopyPooled() Block {
	buf := memory.DefaultPool.Get(len(b.data))
	buf = append(buf, b.data...)
	return Block{data: buf, Raw: b.Raw, Recs: b.Recs, pooled: true}
}

// Release returns pool-backed storage to memory.DefaultPool and clears the
// block. Releasing a borrowed or owned block is a no-op apart from the
// clear; Release is not idempotent-safe across aliases — exactly one owner.
func (b *Block) Release() {
	if b.pooled {
		memory.DefaultPool.Put(b.data)
	}
	b.data = nil
	b.pooled = false
}

// seal packs a pooled raw buffer into its wire form and transfers ownership
// into the returned block. With compression enabled the raw buffer is
// recycled immediately and the framed copy (also pooled) ships instead.
func seal(set Settings, raw []byte, recs int64) Block {
	if set.Compress == nil {
		return PooledBlock(raw, int64(len(raw)), recs)
	}
	data := Pack(set, raw)
	rawLen := int64(len(raw))
	memory.DefaultPool.Put(raw)
	return Block{data: data, Raw: rawLen, Recs: recs}
}

// Packet is one in-flight block of a pipelined exchange, tagged with the
// node of the producing task so the consumer can classify the read as local
// or remote under the shared accounting rule (see internal/metrics). The
// block's ownership travels with the packet: the consumer releases it after
// decoding.
type Packet struct {
	From  int
	Block Block
}

// Spec describes one shuffle edge, independent of the task executing it.
type Spec[R any] struct {
	// NumParts is the number of reduce partitions.
	NumParts int
	// Codec serializes records on the edge.
	Codec serde.Codec[R]
	// Route maps a record to its reduce partition.
	Route func(R) int
	// Less is the within-partition record order. The sort strategy spills
	// key-sorted runs and merges them when Less is set; with Less nil it
	// groups by partition only (tungsten-style). Must be consistent with
	// Key: records with equal keys compare unordered.
	Less func(a, b R) bool
	// NormKey, when set alongside Less, appends the record's FULL
	// normalized sort key (see serde.NormKeyerFor): a
	// binary form whose bytes.Compare order equals Less exactly. Sort
	// writers then order runs by memcmp on packed key bytes instead of
	// calling Less per comparison — Flink's normalized-key sort and the
	// paper's OptimizedText trick on the TeraSort path. A key that is
	// merely a prefix of the logical order would diverge from Less-only
	// engines and break cross-engine parity; it must be total.
	NormKey func(v R, dst []byte) []byte
	// Key is the record key the combine table indexes and combining
	// compares (KeyBy), required when Merge or CombineRun is set. The
	// index's hash of it is process-seeded and private to one table: it
	// never routes or orders a record, so no output depends on the seed.
	// Route decides where a record goes; a hash it uses (core.HashKey)
	// must be deterministic.
	Key Key[R]
	// Same and Hash are Key's closure form — key equality and a key hash —
	// by which a combining Spec without a Key is indexed: an indirect call
	// per hash and per compare, where KeyBy's index hashes the key's type
	// inline and compares with ==.
	Same func(a, b R) bool
	Hash func(R) uint64
	// Merge is the pairwise map-side combiner (nil disables pairwise
	// combining): under both strategies a record folds into its key's
	// entry as it arrives.
	Merge func(a, b R) R
	// CombineRun is the run-level combiner (Hadoop's Combine over a sorted
	// run): it receives records grouped so equal keys are adjacent and
	// returns the folded run. Used when Merge is nil. run is the writer's
	// scratch and is not read after the call, so CombineRun may fold it in
	// place and return a prefix of it.
	CombineRun func(run []R) []R
}

// combining reports whether any map-side combine is configured.
func (s *Spec[R]) combining() bool { return s.Merge != nil || s.CombineRun != nil }

// SpillStore materializes sort-writer runs outside the task's memory — the
// MapReduce engine backs it with the simulated DFS so spill bytes hit disk.
// A nil store keeps runs in memory.
type SpillStore interface {
	// Write stores one run segment and returns its handle. The store owns
	// the pooled block from then on and releases it at Remove.
	Write(run, part int, b Block) (string, error)
	// Read loads a segment back for the final merge. The writer releases
	// the block once the segment is decoded, so a store may hand out a
	// view of its own storage (OwnedBlock) or a pooled copy (PooledBlock).
	Read(handle string) (Block, error)
	// Remove deletes a segment and releases the block Write stored. The
	// writer calls it once per handle, after the segment's last Read.
	Remove(handle string)
}

// Env is the per-task environment a Writer runs in: the resolved settings,
// the engine's counters, its memory grant, and where finished blocks go.
type Env struct {
	Settings Settings
	// Metrics receives spill and combine accounting; shuffle write/read
	// bytes stay with the engine's Emit/fetch paths, which know locality.
	Metrics *metrics.JobMetrics
	// Mem asks the host engine for n more bytes of shuffle memory; false
	// forces a spill (sort) or combine drain (hash). nil always grants.
	Mem func(n int64) bool
	// Free returns every granted byte once at Close. nil ignores.
	Free func(n int64)
	// Emit receives finished blocks: pipelined flushes during writing
	// (hash strategy with FlushBytes > 0) and one final block per
	// partition at Close — empty partitions included, so materialized
	// shuffles can register a complete output.
	Emit func(part int, b Block) error
	// Spill materializes sort runs; nil buffers them in memory.
	Spill SpillStore
}

// memQuantum is the granularity of shuffle-memory reservations, shared by
// both strategies (Spark's 32 KB file-buffer quantum).
const memQuantum = 32 * 1024

// memCheckEvery bounds how many records are admitted between memory checks.
const memCheckEvery = 1024

// Writer is the map/producer side of one shuffle edge for one task. Write
// feeds one record; WriteBatch feeds a batch in one call — the vectorized
// emit path, semantically identical to writing each record in order but
// with per-record bookkeeping (pressure checks, pipelined-flush checks,
// route validation) amortized to once per batch, so thresholds are honored
// at batch granularity and a bucket may overshoot FlushBytes by up to one
// batch's bytes. The recs SLICE is borrowed only for the call (callers may
// reuse scratch); the record values are retained exactly as Write retains
// its argument. Close flushes every partition downstream. Abort ends a
// failed attempt instead — after an upstream error, a failed write or a
// failed Close: it emits nothing, drops what the writer holds (buckets,
// held records, spilled runs) and returns every memory grant through
// Env.Free, so a task that fails owes its memory manager nothing; blocks
// already emitted stay with their receiver. Writers are not safe for
// concurrent use — one writer per producing task, like one sort buffer per
// Hadoop map task.
type Writer[R any] interface {
	Write(rec R) error
	WriteBatch(recs []R) error
	Close() error
	Abort()
}

// NewWriter builds the Writer for the configured strategy. A Sort request
// without a record order still spills and merges, grouped by partition only
// — the honest model of tungsten-sort's partition-prefix sorting.
func NewWriter[R any](spec Spec[R], env Env) Writer[R] {
	if spec.NumParts <= 0 {
		panic("shuffle: writer needs at least one partition")
	}
	if spec.combining() && spec.Key == nil {
		if spec.Same == nil || spec.Hash == nil {
			panic("shuffle: combining writers need a Key")
		}
		spec.Key = &funcKey[R]{hash: spec.Hash, eq: spec.Same}
	}
	if env.Settings.Kind == Sort {
		return newSortWriter(spec, env)
	}
	return newHashWriter(spec, env)
}
