// Package dfs is an in-memory HDFS stand-in: files are sequences of
// fixed-size blocks placed round-robin with replication across nodes. Every
// engine reads inputs from it (one input split per block, with HDFS's
// record-boundary conventions) and writes results back through it, so block
// size and locality behave like the HDFS 2.7 deployment in the paper.
//
// A split is read by the task that consumes it: File.Lines(i) and
// File.FixedRecords(i, n) return one block's records and are called from
// inside spark's partition compute, flink's source subtasks and
// mapreduce's map tasks — nothing reads or copies a whole file on the
// driver. LineSplits and FixedRecordSplits are those readers looped over
// every block.
package dfs

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

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

// File is an immutable stored file.
type File struct {
	Name   string
	Blocks []Block

	// data is the buffer the file was written with: block i is
	// data[i*blockSize:][:len(Blocks[i].Data)], the flat view the per-block
	// readers use to finish a record that crosses a block boundary.
	data      []byte
	blockSize int
}

// Block is one block with its replica placement.
type Block struct {
	Data     []byte
	Replicas []int // node IDs holding a copy
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
// in the paper's per-experiment cleanup.
func (fs *FS) WriteFile(name string, data []byte) *File {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &File{Name: name, data: data, blockSize: fs.blockSize}
	for off := 0; off < len(data) || off == 0; off += fs.blockSize {
		end := off + fs.blockSize
		if end > len(data) {
			end = len(data)
		}
		blk := Block{Data: data[off:end:end]}
		for r := 0; r < fs.replication; r++ {
			blk.Replicas = append(blk.Replicas, (fs.nextNode+r)%fs.nodes)
		}
		fs.nextNode = (fs.nextNode + 1) % fs.nodes
		f.Blocks = append(f.Blocks, blk)
		if len(data) == 0 {
			break
		}
	}
	fs.files[name] = f
	return f
}

// WriteParts stores the concatenation of parts under name — the commit step
// of a parallel sink whose tasks each encoded one output partition: one
// allocation of the exact total size (bytes.Join does not zero what it is
// about to overwrite), one copy per part, and the same File (blocks,
// placement, Contents, Lines) as WriteFile of the concatenation.
func (fs *FS) WriteParts(name string, parts [][]byte) *File {
	return fs.WriteFile(name, bytes.Join(parts, nil))
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

// Size returns the file's byte length.
func (f *File) Size() int64 { return int64(len(f.data)) }

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

// Contents returns a fresh copy of the file's bytes; tests and actions like
// collect use it.
func (f *File) Contents() []byte {
	return f.AppendTo(make([]byte, 0, len(f.data)))
}

// AppendTo appends the file's contents to dst and returns the extended
// slice — the pool-friendly read path (the caller brings a recycled
// buffer instead of Contents allocating a fresh one).
func (f *File) AppendTo(dst []byte) []byte {
	return append(dst, f.data...)
}

// Contiguous returns the file's bytes without copying when they live in a
// single storage block — the zero-copy local-read fast path. Callers must
// treat the returned slice as read-only borrowed storage.
func (f *File) Contiguous() ([]byte, bool) {
	if len(f.Blocks) == 1 {
		return f.Blocks[0].Data, true
	}
	return nil, false
}

// blockSpan returns block i's byte range [start, end) in f.data.
func (f *File) blockSpan(i int) (int, int) {
	start := i * f.blockSize
	return start, start + len(f.Blocks[i].Data)
}

// lineSpan returns the byte range [lo, hi) of f.data holding the lines that
// belong to block i under the HDFS input-split convention: every line
// belongs to exactly one split — the one containing the line's first byte —
// and a reader finishes a line that crosses its block boundary by reading
// into the next block. hi is past the last line's newline (or the end of
// the file); lo == hi when the block owns no line. No line is lost or
// duplicated, which tests assert by reconciling against a plain line split
// of the whole file.
func (f *File) lineSpan(i int) (lo, hi int) {
	start, end := f.blockSpan(i)
	if start == end {
		return start, start
	}
	lo = start
	if i > 0 && f.data[start-1] != '\n' {
		// The line containing byte `start` began in an earlier block.
		nl := bytes.IndexByte(f.data[start:], '\n')
		if nl < 0 || start+nl+1 >= end {
			return start, start // the block lies inside one line
		}
		lo = start + nl + 1
	}
	// The line holding the block's last byte is the last one that starts
	// inside the block.
	nl := bytes.IndexByte(f.data[end-1:], '\n')
	if nl < 0 {
		return lo, len(f.data)
	}
	return lo, end + nl
}

// Lines returns the lines belonging to block i (see lineSpan), without
// their newlines. It is the reader every engine's text source calls from
// inside the task that consumes the split. The lines are substrings of one
// per-block string arena and the slice is sized by counting newlines first,
// so a block costs two allocations however many lines it holds.
func (f *File) Lines(i int) []string {
	lo, hi := f.lineSpan(i)
	if lo == hi {
		return nil
	}
	arena := string(f.data[lo:hi])
	n := strings.Count(arena, "\n")
	if arena[len(arena)-1] != '\n' {
		n++ // the file's final line has no newline
	}
	lines := make([]string, n)
	for k := range lines {
		nl := strings.IndexByte(arena, '\n')
		if nl < 0 {
			lines[k] = arena
			break
		}
		lines[k] = arena[:nl]
		arena = arena[nl+1:]
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

// ScanLines calls fn once per line belonging to block i, passing a borrowed
// []byte view of the line without its newline — Lines without the string
// arena: the view aliases file storage and must not be retained or written.
func (f *File) ScanLines(i int, fn func(line []byte)) {
	lo, hi := f.lineSpan(i)
	for rest := f.data[lo:hi]; len(rest) > 0; {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			fn(rest[:len(rest):len(rest)])
			return
		}
		fn(rest[:nl:nl])
		rest = rest[nl+1:]
	}
}

// recordSpan returns the indices [first, last) of the width-recSize records
// belonging to block i: those whose first byte lies in the block (records
// may straddle blocks, as TeraSort's 100-byte records do over power-of-two
// block sizes). A trailing partial record belongs to no block.
func (f *File) recordSpan(i, recSize int) (first, last int) {
	if recSize <= 0 {
		panic("dfs: record size must be positive")
	}
	start, end := f.blockSpan(i)
	first = (start + recSize - 1) / recSize
	last = min((end+recSize-1)/recSize, len(f.data)/recSize)
	return first, max(first, last)
}

// FixedRecords returns the records belonging to block i (see recordSpan)
// as borrowed views over file storage, in a slice sized exactly — the
// fixed-width counterpart of Lines, one allocation per block.
func (f *File) FixedRecords(i, recSize int) [][]byte {
	first, last := f.recordSpan(i, recSize)
	if first == last {
		return nil
	}
	recs := make([][]byte, last-first)
	for k := range recs {
		off := (first + k) * recSize
		recs[k] = f.data[off : off+recSize : off+recSize]
	}
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
// borrowed views — FixedRecords without the per-block slice.
func (f *File) ScanFixedRecords(i, recSize int, fn func(rec []byte)) {
	first, last := f.recordSpan(i, recSize)
	for off := first * recSize; off < last*recSize; off += recSize {
		fn(f.data[off : off+recSize : off+recSize])
	}
}
