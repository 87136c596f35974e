package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// plainLines is the reference every line reader answers to: the text split
// at newlines, with no final empty line after a trailing newline.
func plainLines(raw []byte) []string {
	lines := strings.Split(string(raw), "\n")
	return lines[:len(lines)-1+min(1, len(lines[len(lines)-1]))]
}

// lineBatches reads block b through a width-wide buffer and returns copies of
// the batches, holding the reader to its batching terms on the way: batches
// are the caller's buffer, never empty, and full except the last.
func lineBatches(t *testing.T, f *File, b, width int) [][]string {
	t.Helper()
	buf := make([]string, width)
	var batches [][]string
	short := false
	err := f.LineBatches(b, buf, func(lines []string) error {
		if len(lines) == 0 || len(lines) > width || &lines[0] != &buf[0] {
			t.Fatalf("block %d width %d: batch of %d lines at %p, buffer at %p", b, width, len(lines), &lines[0], &buf[0])
		}
		if short {
			t.Fatalf("block %d width %d: a batch followed a short one", b, width)
		}
		short = len(lines) < width
		batches = append(batches, append([]string(nil), lines...))
		return nil
	})
	if err != nil {
		t.Fatalf("block %d width %d: %v", b, width, err)
	}
	return batches
}

// TestLineBatchesMatchPlainSplit cuts texts with every awkward shape — empty
// lines, a line longer than several blocks, no trailing newline, only
// newlines, nothing at all — at every block size from one byte to the whole
// file, so a block boundary falls on every offset of every line, and reads
// each block at buffer widths from 1 up: block by block the batches must
// concatenate to the reference split, and over the file to a plain
// strings.Split.
func TestLineBatchesMatchPlainSplit(t *testing.T) {
	texts := []string{
		"",
		"\n",
		"\n\n\n",
		"one line, no newline",
		"alpha\nbeta\n\n\ngamma delta epsilon zeta eta theta iota kappa lambda\nmu\n",
		"alpha\r\nbeta\x00\r\n\r\ntail without newline",
		"\nleading empty line\n" + strings.Repeat("x", 70) + "\n\n",
	}
	for _, text := range texts {
		raw := []byte(text)
		for blockSize := 1; blockSize <= len(raw)+1; blockSize++ {
			f := New(3, core.ByteSize(blockSize), 1).WriteFile("t", raw)
			want := refLineSplits(raw, blockSize)
			for _, width := range []int{1, 2, 5, 64} {
				var all []string
				for b := 0; b < f.NumBlocks(); b++ {
					got := slices.Concat(lineBatches(t, f, b, width)...)
					if !sameLines(got, want[b]) {
						t.Fatalf("%q bs=%d block %d width %d: batches hold %q, want %q", text, blockSize, b, width, got, want[b])
					}
					all = append(all, got...)
				}
				if !sameLines(all, plainLines(raw)) {
					t.Fatalf("%q bs=%d width %d: the blocks hold %q, a plain split %q", text, blockSize, width, all, plainLines(raw))
				}
			}
		}
	}
}

// TestFixedRecordBatchesMatchPlainCut does the same for 100-byte records:
// block sizes from 1 to past two records put a boundary on every offset of a
// record, the file ends in a partial record (which belongs to no block), and
// the batches of all blocks must concatenate to a plain cut of the file.
func TestFixedRecordBatchesMatchPlainCut(t *testing.T) {
	const recSize = 100
	raw := make([]byte, 7*recSize+37)
	for i := range raw {
		raw[i] = byte(i * 31)
	}
	var want [][]byte
	for off := 0; off+recSize <= len(raw); off += recSize {
		want = append(want, raw[off:off+recSize])
	}
	for blockSize := 1; blockSize <= 2*recSize+3; blockSize++ {
		f := New(3, core.ByteSize(blockSize), 1).WriteFile("t", raw)
		for _, width := range []int{1, 3, 64} {
			buf := make([][]byte, width)
			var all [][]byte
			for b := 0; b < f.NumBlocks(); b++ {
				var got [][]byte
				err := f.FixedRecordBatches(b, recSize, buf, func(recs [][]byte) error {
					if len(recs) == 0 || len(recs) > width || &recs[0] != &buf[0] {
						t.Fatalf("bs=%d block %d width %d: batch of %d records is not the buffer", blockSize, b, width, len(recs))
					}
					got = append(got, recs...)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if ref := f.FixedRecords(b, recSize); len(got) != len(ref) {
					t.Fatalf("bs=%d block %d width %d: %d records in batches, FixedRecords has %d", blockSize, b, width, len(got), len(ref))
				}
				all = append(all, got...)
			}
			if len(all) != len(want) {
				t.Fatalf("bs=%d width %d: %d records, want %d", blockSize, width, len(all), len(want))
			}
			for i := range want {
				if !bytes.Equal(all[i], want[i]) || len(all[i]) != cap(all[i]) {
					t.Fatalf("bs=%d width %d: record %d differs from the plain cut, or its capacity reaches past it", blockSize, width, i)
				}
			}
		}
	}
	empty := New(1, 64, 1).WriteFile("e", nil)
	err := empty.FixedRecordBatches(0, recSize, make([][]byte, 4), func([][]byte) error {
		t.Error("FixedRecordBatches called back on an empty file")
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

// TestBatchReadersStopAtYieldError: the first error a consumer returns ends
// the read and is what the reader returns.
func TestBatchReadersStopAtYieldError(t *testing.T) {
	f := New(1, 1<<20, 1).WriteFile("t", bytes.Repeat([]byte("0123456789\n"), 100))
	boom := errors.New("consumer failed")
	calls := 0
	err := f.LineBatches(0, make([]string, 8), func([]string) error {
		if calls++; calls == 3 {
			return boom
		}
		return nil
	})
	if err != boom || calls != 3 {
		t.Errorf("LineBatches returned %v after %d batches, want the consumer's error after 3", err, calls)
	}
	calls = 0
	err = f.FixedRecordBatches(0, 11, make([][]byte, 8), func([][]byte) error {
		if calls++; calls == 2 {
			return boom
		}
		return nil
	})
	if err != boom || calls != 2 {
		t.Errorf("FixedRecordBatches returned %v after %d batches, want the consumer's error after 2", err, calls)
	}
}

// partOf returns the index of the part of f whose storage holds the n bytes
// at p, or -1 when no single part does.
func partOf(f *File, p *byte, n int) int {
	at := uintptr(unsafe.Pointer(p))
	for i, part := range f.parts {
		base := uintptr(unsafe.Pointer(unsafe.SliceData(part)))
		if len(part) > 0 && at >= base && at+uintptr(n) <= base+uintptr(len(part)) {
			return i
		}
	}
	return -1
}

// inStorage reports whether the n bytes at p lie inside f's stored buffers.
func inStorage(f *File, p *byte, n int) bool { return partOf(f, p, n) >= 0 }

// TestReadersViewStorage pins the readers' zero-copy contract. Every line and
// record a reader hands out is a view of the buffer the file was written
// with — no arena, no copy — and reading a block through a caller's buffer
// allocates nothing, however many records the block holds; the per-record
// scanners allocate nothing either, FixedRecords exactly its result, and a
// block that owns no line costs Lines nothing.
func TestReadersViewStorage(t *testing.T) {
	fs := New(2, 1024, 1)
	f := fs.WriteFile("t", bytes.Repeat([]byte("line with some text\n\n"), 200))
	lines, recs := make([]string, 16), make([][]byte, 16)
	for b := 0; b < f.NumBlocks(); b++ {
		seen := 0
		_ = f.LineBatches(b, lines, func(batch []string) error {
			for _, line := range batch {
				if seen++; len(line) > 0 && !inStorage(f, unsafe.StringData(line), len(line)) {
					t.Fatalf("block %d: line %q is not a view of the file's storage", b, line)
				}
			}
			return nil
		})
		if seen < 90 && b < f.NumBlocks()-1 {
			t.Fatalf("block %d yielded %d lines; the test wants many batches a block", b, seen)
		}
		_ = f.FixedRecordBatches(b, 20, recs, func(batch [][]byte) error {
			for _, rec := range batch {
				if !inStorage(f, &rec[0], len(rec)) {
					t.Fatalf("block %d: a record is not a view of the file's storage", b)
				}
			}
			return nil
		})
		for _, line := range f.Lines(b) {
			if len(line) > 0 && !inStorage(f, unsafe.StringData(line), len(line)) {
				t.Fatalf("block %d: Lines copied %q out of the file's storage", b, line)
			}
		}
		keep := func([]string) error { return nil }
		if n := testing.AllocsPerRun(20, func() { _ = f.LineBatches(b, lines, keep) }); n != 0 {
			t.Errorf("LineBatches(%d) allocates %.0f times with the caller's buffer, want 0", b, n)
		}
		keepRecs := func([][]byte) error { return nil }
		if n := testing.AllocsPerRun(20, func() { _ = f.FixedRecordBatches(b, 20, recs, keepRecs) }); n != 0 {
			t.Errorf("FixedRecordBatches(%d) allocates %.0f times with the caller's buffer, want 0", b, n)
		}
		if n := testing.AllocsPerRun(20, func() { f.FixedRecords(b, 20) }); n > 1 {
			t.Errorf("FixedRecords(%d) allocates %.0f times, want at most 1", b, n)
		}
		if n := testing.AllocsPerRun(20, func() { f.ScanLines(b, func([]byte) {}) }); n > 0 {
			t.Errorf("ScanLines(%d) allocates %.0f times, want 0", b, n)
		}
		if n := testing.AllocsPerRun(20, func() { f.ScanFixedRecords(b, 20, func([]byte) {}) }); n > 0 {
			t.Errorf("ScanFixedRecords(%d) allocates %.0f times, want 0", b, n)
		}
	}
	inside := fs.WriteFile("one-line", bytes.Repeat([]byte("x"), 4096))
	if n := testing.AllocsPerRun(20, func() { inside.Lines(2) }); n > 0 {
		t.Errorf("Lines on a block inside one line allocates %.0f times, want 0", n)
	}
}

// newlineParts cuts raw into parts after the newlines cuts picks — newline k
// when bit k%63 is set — with an empty part beside every cut when bit 63 is:
// the parts a text sink's tasks commit, each ending at a line boundary.
func newlineParts(raw []byte, cuts uint64) [][]byte {
	var parts [][]byte
	start, k := 0, 0
	for i, c := range raw {
		if c != '\n' {
			continue
		}
		if cuts>>(k%63)&1 == 1 {
			parts = append(parts, raw[start:i+1])
			if cuts>>63 == 1 {
				parts = append(parts, nil)
			}
			start = i + 1
		}
		k++
	}
	return append(parts, raw[start:])
}

// FuzzLineBatches holds the streaming reader to bytes.Split over arbitrary
// bytes, block sizes, buffer lengths and newline-aligned part cuts: read
// block by block, the batches must concatenate to the file's lines — none
// lost, duplicated, reordered or altered, CR and NUL bytes included.
func FuzzLineBatches(f *testing.F) {
	f.Add([]byte("alpha\nbeta\n\ngamma"), uint16(4), uint8(2), uint64(0))
	f.Add([]byte("dos\r\nline\r\n\r\nends\r\n"), uint16(3), uint8(1), uint64(0b101))
	f.Add([]byte("nul\x00inside\n\x00\n\x00\x00"), uint16(5), uint8(3), uint64(1<<63|0b11))
	f.Add([]byte("\n\n\n\n"), uint16(1), uint8(1), ^uint64(0))
	f.Add([]byte{}, uint16(8), uint8(4), ^uint64(0))
	f.Add(bytes.Repeat([]byte("a single line of several megabytes "), 3<<20/35), uint16(65535), uint8(7), uint64(0))
	f.Add(append(bytes.Repeat([]byte("y"), 2<<20), "\nshort\n"...), uint16(4096), uint8(255), uint64(1))
	f.Fuzz(func(t *testing.T, raw []byte, blockSize uint16, width uint8, cuts uint64) {
		file := New(2, core.ByteSize(blockSize)+1, 1).WriteParts("t", newlineParts(raw, cuts))
		want := bytes.Split(raw, []byte("\n"))
		if len(want[len(want)-1]) == 0 {
			want = want[:len(want)-1] // no line after a trailing newline, none in an empty file
		}
		buf := make([]string, int(width)+1)
		k := 0
		for b := 0; b < file.NumBlocks(); b++ {
			err := file.LineBatches(b, buf, func(lines []string) error {
				for _, line := range lines {
					if k >= len(want) {
						return fmt.Errorf("block %d: line %d is %q, bytes.Split has only %d lines", b, k, line, len(want))
					}
					if line != string(want[k]) {
						return fmt.Errorf("block %d: line %d is %q, bytes.Split has %q", b, k, line, want[k])
					}
					k++
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if k != len(want) {
			t.Fatalf("the blocks hold %d lines, bytes.Split %d", k, len(want))
		}
	})
}
