// Package dfs is an in-memory HDFS stand-in: files are sequences of
// fixed-size blocks placed round-robin with replication across nodes. Every
// engine reads inputs from it (one input split per block, with HDFS's
// record-boundary conventions) and writes results back through it, so block
// size and locality behave like the HDFS 2.7 deployment in the paper.
//
// A split is read by the task that consumes it, as a stream: File.LineBatches
// and File.FixedRecordBatches walk one block's span once and hand the
// records to the caller a batch at a time, through a buffer the caller
// brings. They are called from inside spark's partition stream, flink's
// source subtasks and mapreduce's map tasks — nothing reads or copies a whole
// file on the driver, and no reader copies, counts or collects a split: like
// Hadoop's LineRecordReader, which all three real engines read text through,
// a read is one pass with one reused buffer. Each format has one splitter
// (lineCursor, recordCursor); Lines, FixedRecords, ScanLines,
// ScanFixedRecords and the *Splits forms are that splitter gathered or
// looped, for callers that want a split whole or a record at a time.
//
// Records are views. A line is a string, a fixed-width record a []byte, over
// the file's own storage: reading allocates and copies nothing, and a record
// stays valid for as long as anything refers to it, so consumers may keep
// records (only the batch slice they arrive in is borrowed — it is the
// caller's buffer, refilled for the next batch). A fixed-width record may be
// viewed as a string too, through RecordString, and split into key and value
// strings that copy nothing. This rests on the file
// being write-once: WriteFile keeps the buffer it is given, nobody writes
// that buffer again, and readers never write through a view. Every caller of
// WriteFile hands over a buffer it built for the purpose and drops —
// generated inputs (datagen, tests, the benchmark), sink output (WriteParts
// keeps the parts the sink tasks encoded, each a buffer the dataflow sink
// allocated for this file and drops once it is committed), encoded
// iteration state, mapreduce's spill runs and shuffle segments. Those last
// two are pooled buffers the engine lends the file for as long as it
// exists: every reader has decoded them into values that never alias the
// file (serde.DecodeAllN), and the job returns each buffer to
// memory.DefaultPool only after it has deleted the file — a spill run when
// the map task's writer removes it, a segment at the job's cleanup.
// Overwriting a name stores a new File over a new buffer; views of the old
// one keep it alive and unchanged.
//
// A file is stored as the parts it was written in — one for WriteFile, one
// per sink task for WriteParts, one per codec block for the files the
// mapreduce lowerings stage (read back by Part) — and every block is cut
// from one part, the
// part-file layout real engines commit: output is never concatenated on
// the way in. Contents and AppendTo concatenate on the way out.
package dfs

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/core"
)

// FS is the filesystem. It is safe for concurrent use.
type FS struct {
	mu          sync.RWMutex
	blockSize   int
	replication int
	nodes       int
	nextNode    int
	files       map[string]*File
}

// File is an immutable stored file: its bytes never change once written,
// which is what lets the readers hand out views of them (package comment).
type File struct {
	Name   string
	Blocks []Block

	// parts are the buffers the file was written with, in order — one for
	// WriteFile, one per sink task for WriteParts — and the storage every
	// line and record the readers yield points into.
	parts [][]byte
}

// Block is one block with its replica placement. A block is cut from one
// part and never straddles two.
type Block struct {
	Data     []byte
	Replicas []int // node IDs holding a copy

	// part is the part the block was cut from and off Data's offset in it:
	// the view the readers use to finish a record that crosses a block
	// boundary, which ends where the part does.
	part []byte
	off  int
}

// New creates a filesystem over the given number of nodes.
func New(nodes int, blockSize core.ByteSize, replication int) *FS {
	if nodes <= 0 {
		panic("dfs: need at least one node")
	}
	if blockSize <= 0 {
		panic("dfs: block size must be positive")
	}
	if replication <= 0 {
		replication = 1
	}
	if replication > nodes {
		replication = nodes
	}
	return &FS{
		blockSize:   int(blockSize),
		replication: replication,
		nodes:       nodes,
		files:       make(map[string]*File),
	}
}

// BlockSize returns the configured block size.
func (fs *FS) BlockSize() core.ByteSize { return core.ByteSize(fs.blockSize) }

// WriteFile stores data under name, splitting into blocks and placing
// replicas round-robin. An existing file is replaced, like an overwrite
// in the paper's per-experiment cleanup. The file keeps data itself, not a
// copy, and readers hand out views of it: the caller must not write to data
// afterwards.
func (fs *FS) WriteFile(name string, data []byte) *File {
	return fs.WriteParts(name, [][]byte{data})
}

// WriteParts stores parts under name as one file — the commit step of a
// parallel sink whose tasks each encoded one output partition, and the
// part-file layout Hadoop, Spark and Flink all commit: the file keeps the
// parts as given, with no join and no copy, and cuts every part into blocks
// of its own, so no block straddles two parts. Placement runs round-robin
// across the parts' blocks; zero parts, or only empty ones, make one empty
// block, like an empty WriteFile. A reader finishes a record at the end of
// its part, so parts that end at a record boundary (a newline, a multiple
// of the record width) read exactly as WriteFile of their concatenation.
// As with WriteFile, the caller must not write to a part afterwards.
func (fs *FS) WriteParts(name string, parts [][]byte) *File {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &File{Name: name, parts: parts}
	place := func(part []byte, off, end int) {
		blk := Block{Data: part[off:end:end], part: part, off: off}
		for r := 0; r < fs.replication; r++ {
			blk.Replicas = append(blk.Replicas, (fs.nextNode+r)%fs.nodes)
		}
		fs.nextNode = (fs.nextNode + 1) % fs.nodes
		f.Blocks = append(f.Blocks, blk)
	}
	for _, part := range parts {
		for off := 0; off < len(part); off += fs.blockSize {
			place(part, off, min(off+fs.blockSize, len(part)))
		}
	}
	if len(f.Blocks) == 0 {
		place(nil, 0, 0)
	}
	fs.files[name] = f
	return f
}

// Open returns a stored file.
func (fs *FS) Open(name string) (*File, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: file %q does not exist", name)
	}
	return f, nil
}

// Exists reports whether the file is stored.
func (fs *FS) Exists(name string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[name]
	return ok
}

// Delete removes a file; deleting a missing file is a no-op, like
// `hdfs dfs -rm -f`.
func (fs *FS) Delete(name string) {
	fs.mu.Lock()
	delete(fs.files, name)
	fs.mu.Unlock()
}

// List returns stored file names in sorted order.
func (fs *FS) List() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Size returns the file's byte length, the sum of its parts.
func (f *File) Size() int64 {
	var n int64
	for _, part := range f.parts {
		n += int64(len(part))
	}
	return n
}

// NumBlocks returns the number of blocks (at least 1, even for empty
// files, matching HDFS metadata behaviour for zero-length files).
func (f *File) NumBlocks() int { return len(f.Blocks) }

// PreferredNode returns the first replica holder of block i — the node a
// locality-aware scheduler assigns the corresponding input split to.
func (f *File) PreferredNode(i int) int {
	if i < 0 || i >= len(f.Blocks) || len(f.Blocks[i].Replicas) == 0 {
		return 0
	}
	return f.Blocks[i].Replicas[0]
}

// Contents returns a fresh copy of the file's bytes, its parts
// concatenated; tests and actions like collect use it.
func (f *File) Contents() []byte {
	return f.AppendTo(make([]byte, 0, f.Size()))
}

// AppendTo appends the file's contents to dst and returns the extended
// slice — the pool-friendly read path (the caller brings a recycled
// buffer instead of Contents allocating a fresh one).
func (f *File) AppendTo(dst []byte) []byte {
	for _, part := range f.parts {
		dst = append(dst, part...)
	}
	return dst
}

// NumParts returns the number of parts the file was written in (one for
// WriteFile).
func (f *File) NumParts() int { return len(f.parts) }

// Part returns part i as the writer handed it over — a view of the file's
// storage, not a copy, so it must never be written. A writer that ends every
// part at a record boundary, as the mapreduce lowerings' staged files do,
// lets a reader decode the file part by part.
func (f *File) Part(i int) []byte { return f.parts[i] }

// Contiguous returns the file's bytes without copying when they live in a
// single storage block — the zero-copy local-read fast path. Callers must
// treat the returned slice as read-only borrowed storage.
func (f *File) Contiguous() ([]byte, bool) {
	if len(f.Blocks) == 1 {
		return f.Blocks[0].Data, true
	}
	return nil, false
}

// blockSpan returns block i's part and its byte range [start, end) in it.
func (f *File) blockSpan(i int) (part []byte, start, end int) {
	b := f.Blocks[i]
	return b.part, b.off, b.off + len(b.Data)
}

// lineSpan returns block i's part and the byte range [lo, hi) of it holding
// the lines that belong to the block under the HDFS input-split convention:
// every line belongs to exactly one split — the one containing the line's
// first byte — and a reader finishes a line that crosses its block boundary
// by reading into the part's next block. hi is past the last line's newline
// (or the end of the part); lo == hi when the block owns no line. No line is
// lost or duplicated, which tests assert by reconciling against a plain line
// split of the whole file.
func (f *File) lineSpan(i int) (part []byte, lo, hi int) {
	part, start, end := f.blockSpan(i)
	if start == end {
		return part, start, start
	}
	lo = start
	if start > 0 && part[start-1] != '\n' {
		// The line containing byte `start` began in an earlier block.
		nl := bytes.IndexByte(part[start:], '\n')
		if nl < 0 || start+nl+1 >= end {
			return part, start, start // the block lies inside one line
		}
		lo = start + nl + 1
	}
	// The line holding the block's last byte is the last one that starts
	// inside the block.
	nl := bytes.IndexByte(part[end-1:], '\n')
	if nl < 0 {
		return part, lo, len(part)
	}
	return part, lo, end + nl
}

// lineCursor is the one line splitter: it walks a span of whole lines once,
// handing out views of the bytes it passes over.
type lineCursor struct{ rest []byte }

// lineCursorOf returns a cursor over the lines belonging to block i.
func (f *File) lineCursorOf(i int) lineCursor {
	part, lo, hi := f.lineSpan(i)
	return lineCursor{rest: part[lo:hi]}
}

// next fills buf with the span's next lines, without their newlines, and
// returns how many it set; 0 means the span is exhausted.
func (c *lineCursor) next(buf []string) int {
	rest, n := c.rest, 0
	for n < len(buf) && len(rest) > 0 {
		end := bytes.IndexByte(rest, '\n')
		next := end + 1
		if end < 0 { // the part's final line has no newline
			end, next = len(rest), len(rest)
		}
		buf[n] = unsafe.String(unsafe.SliceData(rest), end)
		n++
		rest = rest[next:]
	}
	c.rest = rest
	return n
}

// LineBatches streams the lines belonging to block i (see lineSpan), without
// their newlines, through buf: it walks the block's span once, fills buf with
// views of the file's storage, and hands yield the filled prefix — len(buf)
// lines at a time, fewer in the last batch — until the block is done or yield
// returns an error, which ends the read and is returned. It is the reader
// every engine's text source calls from inside the task that consumes the
// split. Nothing is copied or allocated: the batch slice is buf itself, valid
// until yield returns, while the lines are views of the stored file (see the
// package comment) and may be kept.
func (f *File) LineBatches(i int, buf []string, yield func(lines []string) error) error {
	if len(buf) == 0 {
		panic("dfs: LineBatches needs a batch buffer")
	}
	c := f.lineCursorOf(i)
	for n := c.next(buf); n > 0; n = c.next(buf) {
		if err := yield(buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

// gatherBatch is the width of the on-stack buffer the gathering and
// per-record readers below pull their cursor through.
const gatherBatch = 64

// Lines returns the lines belonging to block i gathered into one slice, for
// callers that want a split as a whole.
func (f *File) Lines(i int) []string {
	var lines []string
	var buf [gatherBatch]string
	c := f.lineCursorOf(i)
	for n := c.next(buf[:]); n > 0; n = c.next(buf[:]) {
		lines = append(lines, buf[:n]...)
	}
	return lines
}

// LineSplits returns Lines(i) for every block.
func (f *File) LineSplits() [][]string {
	splits := make([][]string, len(f.Blocks))
	for i := range splits {
		splits[i] = f.Lines(i)
	}
	return splits
}

// ScanLines calls fn once per line belonging to block i, passing a []byte
// view of the line without its newline: the view aliases file storage and
// must not be written.
func (f *File) ScanLines(i int, fn func(line []byte)) {
	var buf [gatherBatch]string
	c := f.lineCursorOf(i)
	for n := c.next(buf[:]); n > 0; n = c.next(buf[:]) {
		for _, line := range buf[:n] {
			fn(unsafe.Slice(unsafe.StringData(line), len(line)))
		}
	}
}

// recordSpan returns block i's part and the byte range [lo, hi) of it
// holding the width-recSize records that belong to the block: those whose
// first byte lies in the block (records may straddle blocks, as TeraSort's
// 100-byte records do over power-of-two block sizes), counted from the start
// of the part. A trailing partial record of a part belongs to no block.
func (f *File) recordSpan(i, recSize int) (part []byte, lo, hi int) {
	if recSize <= 0 {
		panic("dfs: record size must be positive")
	}
	part, start, end := f.blockSpan(i)
	first := (start + recSize - 1) / recSize
	last := min((end+recSize-1)/recSize, len(part)/recSize)
	return part, first * recSize, max(first, last) * recSize
}

// recordCursor is the one fixed-width splitter: it walks the records of a
// span once, handing out views of them.
type recordCursor struct {
	data           []byte
	off, end, size int
}

// recordCursorOf returns a cursor over the records belonging to block i.
func (f *File) recordCursorOf(i, recSize int) recordCursor {
	part, lo, hi := f.recordSpan(i, recSize)
	return recordCursor{data: part, off: lo, end: hi, size: recSize}
}

// next fills buf with the span's next records and returns how many it set;
// 0 means the span is exhausted.
func (c *recordCursor) next(buf [][]byte) int {
	n := 0
	for ; n < len(buf) && c.off < c.end; c.off += c.size {
		buf[n] = c.data[c.off : c.off+c.size : c.off+c.size]
		n++
	}
	return n
}

// FixedRecordBatches is the fixed-width counterpart of LineBatches: it
// streams the records belonging to block i (see recordSpan) through buf as
// views of the file's storage, len(buf) at a time, on the same terms — the
// batch slice is buf and is valid until yield returns, the records may be
// kept and must not be written, yield's first error ends the read.
func (f *File) FixedRecordBatches(i, recSize int, buf [][]byte, yield func(recs [][]byte) error) error {
	if len(buf) == 0 {
		panic("dfs: FixedRecordBatches needs a batch buffer")
	}
	c := f.recordCursorOf(i, recSize)
	for n := c.next(buf); n > 0; n = c.next(buf) {
		if err := yield(buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

// RecordString returns a record the readers handed out as a string over the
// same bytes, without copying: since the file is write-once (package
// comment), the bytes never change under the string, and the string keeps
// the storage alive like the record does. rec must be a record of a stored
// file (or of another buffer nobody writes again), never a caller's buffer.
func RecordString(rec []byte) string {
	return unsafe.String(unsafe.SliceData(rec), len(rec))
}

// FixedRecords returns the records belonging to block i gathered into one
// slice, sized exactly.
func (f *File) FixedRecords(i, recSize int) [][]byte {
	c := f.recordCursorOf(i, recSize)
	if c.off == c.end {
		return nil
	}
	recs := make([][]byte, (c.end-c.off)/recSize)
	c.next(recs)
	return recs
}

// FixedRecordSplits returns FixedRecords(i, recSize) for every block.
func (f *File) FixedRecordSplits(recSize int) [][][]byte {
	splits := make([][][]byte, len(f.Blocks))
	for i := range splits {
		splits[i] = f.FixedRecords(i, recSize)
	}
	return splits
}

// ScanFixedRecords calls fn once per record belonging to block i, passing
// views of file storage.
func (f *File) ScanFixedRecords(i, recSize int, fn func(rec []byte)) {
	var buf [gatherBatch][]byte
	c := f.recordCursorOf(i, recSize)
	for n := c.next(buf[:]); n > 0; n = c.next(buf[:]) {
		for _, rec := range buf[:n] {
			fn(rec)
		}
	}
}
