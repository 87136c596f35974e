package dfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
)

func TestWriteOpenRoundTrip(t *testing.T) {
	fs := New(4, 16, 2)
	data := []byte("hello distributed world, this spans several blocks")
	fs.WriteFile("f", data)
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Contents(), data) {
		t.Error("contents mismatch after block split")
	}
	if f.Size() != int64(len(data)) {
		t.Errorf("size = %d, want %d", f.Size(), len(data))
	}
	wantBlocks := (len(data) + 15) / 16
	if f.NumBlocks() != wantBlocks {
		t.Errorf("blocks = %d, want %d", f.NumBlocks(), wantBlocks)
	}
}

func TestOpenMissing(t *testing.T) {
	fs := New(2, 64, 1)
	if _, err := fs.Open("nope"); err == nil {
		t.Error("opening a missing file should fail")
	}
	if fs.Exists("nope") {
		t.Error("Exists lied")
	}
}

func TestReplicationPlacement(t *testing.T) {
	fs := New(5, 8, 3)
	fs.WriteFile("f", make([]byte, 64))
	f, _ := fs.Open("f")
	for i, b := range f.Blocks {
		if len(b.Replicas) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", i, len(b.Replicas))
		}
		seen := map[int]bool{}
		for _, r := range b.Replicas {
			if r < 0 || r >= 5 {
				t.Fatalf("replica on invalid node %d", r)
			}
			if seen[r] {
				t.Fatalf("block %d has duplicate replica on node %d", i, r)
			}
			seen[r] = true
		}
	}
	if f.PreferredNode(0) == f.PreferredNode(1) && f.PreferredNode(1) == f.PreferredNode(2) {
		t.Error("round-robin placement should spread preferred nodes")
	}
}

func TestReplicationClampedToNodes(t *testing.T) {
	fs := New(2, 8, 5)
	fs.WriteFile("f", make([]byte, 8))
	f, _ := fs.Open("f")
	if len(f.Blocks[0].Replicas) != 2 {
		t.Errorf("replicas = %d, want clamp at 2", len(f.Blocks[0].Replicas))
	}
}

func TestLineSplitsPreserveAllLines(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sb strings.Builder
	var want []string
	for i := 0; i < 200; i++ {
		line := fmt.Sprintf("line-%03d-%s", i, strings.Repeat("x", rng.Intn(30)))
		want = append(want, line)
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	fs := New(3, 64, 1) // 64-byte blocks guarantee many boundary crossings
	fs.WriteFile("text", []byte(sb.String()))
	f, _ := fs.Open("text")
	var got []string
	for _, split := range f.LineSplits() {
		got = append(got, split...)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestLineSplitsNoTrailingNewline(t *testing.T) {
	fs := New(2, 8, 1)
	fs.WriteFile("t", []byte("abcdefghij klmno"))
	f, _ := fs.Open("t")
	// One line, no newline: block 0 owns it whole, block 1 lies inside it.
	if got := f.Lines(0); len(got) != 1 || got[0] != "abcdefghij klmno" {
		t.Errorf("Lines(0) = %q", got)
	}
	if got := f.Lines(1); len(got) != 0 {
		t.Errorf("Lines(1) = %q, want none", got)
	}
}

// refLineSplits is the plain whole-file reference the per-block readers are
// reconciled against: split the text at newlines (no final empty line after
// a trailing newline) and give each line to the block holding its first
// byte.
func refLineSplits(raw []byte, blockSize int) [][]string {
	splits := make([][]string, max(1, (len(raw)+blockSize-1)/blockSize))
	lines := strings.Split(string(raw), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	off := 0
	for _, line := range lines {
		splits[off/blockSize] = append(splits[off/blockSize], line)
		off += len(line) + 1
	}
	return splits
}

// randomText draws n bytes of lowercase text with a newline every
// `every` bytes on average — small values give many empty and one-byte
// lines, large ones give lines that span several blocks and blocks that lie
// wholly inside one line.
func randomText(rng *rand.Rand, n, every int) []byte {
	raw := make([]byte, n)
	for i := range raw {
		if rng.Intn(every) == 0 {
			raw[i] = '\n'
		} else {
			raw[i] = byte('a' + rng.Intn(26))
		}
	}
	return raw
}

func sameLines(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestLineSplitsProperty reconciles Lines, block for block, with the
// whole-file reference over random text and block sizes 1…40.
func TestLineSplitsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 600; trial++ {
		blockSize := 1 + rng.Intn(40)
		raw := randomText(rng, rng.Intn(200), []int{2, 4, 30, 120}[trial%4])
		fs := New(3, core.ByteSize(blockSize), 1)
		f := fs.WriteFile("t", raw)
		want := refLineSplits(raw, blockSize)
		if f.NumBlocks() != len(want) {
			t.Fatalf("trial %d: %d blocks, want %d", trial, f.NumBlocks(), len(want))
		}
		for b := range want {
			if got := f.Lines(b); !sameLines(got, want[b]) {
				t.Fatalf("trial %d block %d (bs=%d): Lines = %q, want %q\nraw=%q",
					trial, b, blockSize, got, want[b], raw)
			}
		}
		if got := f.LineSplits(); len(got) != len(want) {
			t.Fatalf("trial %d: LineSplits has %d splits, want %d", trial, len(got), len(want))
		}
	}
}

func TestFixedRecordSplits(t *testing.T) {
	const recSize = 10
	var data []byte
	for i := 0; i < 33; i++ {
		rec := bytes.Repeat([]byte{byte('a' + i%26)}, recSize)
		data = append(data, rec...)
	}
	fs := New(4, 64, 1) // 64 % 10 != 0 → records straddle blocks
	fs.WriteFile("tera", data)
	f, _ := fs.Open("tera")
	var count int
	var all []byte
	for _, split := range f.FixedRecordSplits(recSize) {
		for _, rec := range split {
			if len(rec) != recSize {
				t.Fatalf("record length %d, want %d", len(rec), recSize)
			}
			count++
			all = append(all, rec...)
		}
	}
	if count != 33 {
		t.Fatalf("got %d records, want 33", count)
	}
	if !bytes.Equal(all, data) {
		t.Error("record order or content corrupted across block boundaries")
	}
}

func TestDeleteAndList(t *testing.T) {
	fs := New(2, 64, 1)
	fs.WriteFile("b", nil)
	fs.WriteFile("a", nil)
	if got := fs.List(); len(got) != 2 || got[0] != "a" {
		t.Errorf("List = %v", got)
	}
	fs.Delete("a")
	fs.Delete("a") // idempotent
	if fs.Exists("a") || !fs.Exists("b") {
		t.Error("Delete broke namespace")
	}
}

func TestEmptyFileHasOneBlock(t *testing.T) {
	fs := New(2, 64, 1)
	fs.WriteFile("empty", nil)
	f, _ := fs.Open("empty")
	if f.NumBlocks() != 1 {
		t.Errorf("empty file blocks = %d, want 1", f.NumBlocks())
	}
	if got := f.LineSplits(); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("empty file line splits = %v", got)
	}
	if got := f.Lines(0); len(got) != 0 {
		t.Errorf("empty file Lines(0) = %q", got)
	}
	if got := f.FixedRecords(0, 10); len(got) != 0 {
		t.Errorf("empty file FixedRecords(0) = %q", got)
	}
	f.ScanLines(0, func([]byte) { t.Error("ScanLines called back on an empty file") })
	if got := f.Contents(); len(got) != 0 {
		t.Errorf("empty file contents = %q", got)
	}
}

func TestBlockSizeAccessor(t *testing.T) {
	fs := New(2, 256*core.MB, 1)
	if fs.BlockSize() != 256*core.MB {
		t.Error("BlockSize accessor wrong")
	}
}

// TestScanLinesMatchesLineSplits pins the borrowed-view scanner to Lines:
// for random text and block sizes, ScanLines over every block must yield
// exactly that block's lines.
func TestScanLinesMatchesLineSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		blockSize := 1 + rng.Intn(40)
		raw := randomText(rng, rng.Intn(200), []int{4, 60}[trial%2])
		fs := New(3, core.ByteSize(blockSize), 1)
		f := fs.WriteFile("t", raw)
		for b := 0; b < f.NumBlocks(); b++ {
			var got []string
			f.ScanLines(b, func(line []byte) {
				got = append(got, string(line))
			})
			if want := f.Lines(b); !sameLines(got, want) {
				t.Fatalf("trial %d block %d (bs=%d): scanned %q, Lines %q\nraw=%q",
					trial, b, blockSize, got, want, raw)
			}
		}
	}
}

// TestScanFixedRecordsMatchesSplits reconciles FixedRecords with a plain
// whole-file cut (record k belongs to the block holding byte k*recSize; a
// trailing partial record to none) across widths that straddle blocks, and
// pins ScanFixedRecords to it.
func TestScanFixedRecordsMatchesSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		recSize := 1 + rng.Intn(13)
		blockSize := 1 + rng.Intn(40)
		raw := make([]byte, recSize*rng.Intn(30)+rng.Intn(recSize))
		rng.Read(raw)
		fs := New(3, core.ByteSize(blockSize), 1)
		f := fs.WriteFile("t", raw)
		want := make([][][]byte, f.NumBlocks())
		for off := 0; off+recSize <= len(raw); off += recSize {
			want[off/blockSize] = append(want[off/blockSize], raw[off:off+recSize])
		}
		for b := 0; b < f.NumBlocks(); b++ {
			got := f.FixedRecords(b, recSize)
			var scanned [][]byte
			f.ScanFixedRecords(b, recSize, func(rec []byte) { scanned = append(scanned, rec) })
			if len(got) != len(want[b]) || len(scanned) != len(want[b]) {
				t.Fatalf("trial %d block %d (rec=%d bs=%d): %d records, %d scanned, want %d",
					trial, b, recSize, blockSize, len(got), len(scanned), len(want[b]))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[b][i]) || !bytes.Equal(scanned[i], want[b][i]) {
					t.Fatalf("trial %d block %d record %d differs", trial, b, i)
				}
			}
		}
	}
}

// TestWritePartsMatchesWriteFile: a parallel sink's file is stored as its
// parts, and parts that end at a record boundary — newline-terminated, or a
// multiple of the record width — read, through every reader, exactly as
// WriteFile of their concatenation. Zero parts, or only empty ones, make one
// empty block like an empty WriteFile; no block straddles two parts; and
// placement runs round-robin over the blocks of all parts.
func TestWritePartsMatchesWriteFile(t *testing.T) {
	cases := []struct {
		name    string
		recSize int
		parts   [][]byte
	}{
		{"zero parts", 1, nil},
		{"all-empty parts", 1, [][]byte{nil, {}, nil}},
		{"newline-terminated parts", 1, [][]byte{
			[]byte("ab\n"), []byte("cdefgh\nijklmnop\nq\n"), nil, []byte("rs\ntuvw\n"), []byte("\n"), []byte("xyz"),
		}},
		{"parts on block boundaries", 1, [][]byte{[]byte("0123456\n"), []byte("89abcde\n0123456\n"), []byte("x")}},
		{"fixed-width parts", 5, [][]byte{[]byte("aaaaabbbbbccccc"), {}, []byte("dddddeeeee"), []byte("fffff")}},
	}
	for _, tc := range cases {
		whole, parted := New(3, 8, 2), New(3, 8, 2)
		want := whole.WriteFile("f", bytes.Join(tc.parts, nil))
		got := parted.WriteParts("f", tc.parts)
		if opened, err := parted.Open("f"); err != nil || opened != got {
			t.Fatalf("%s: Open after WriteParts = %v, %v", tc.name, opened, err)
		}
		if got.Size() != want.Size() || !bytes.Equal(got.Contents(), want.Contents()) {
			t.Fatalf("%s: %d bytes %q, want %d bytes %q", tc.name, got.Size(), got.Contents(), want.Size(), want.Contents())
		}
		if g, w := allLines(t, got), allLines(t, want); tc.recSize == 1 && !sameLines(g, w) { // text cases
			t.Errorf("%s: lines %q, want %q", tc.name, g, w)
		}
		if g, w := allRecords(t, got, tc.recSize), allRecords(t, want, tc.recSize); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("%s: records %q, want %q", tc.name, g, w)
		}
		if got.Size() == 0 && (got.NumBlocks() != 1 || len(got.Blocks[0].Data) != 0) {
			t.Errorf("%s: %d blocks, want one empty block", tc.name, got.NumBlocks())
		}
		var cut [][]byte // each part's blocks, which must tile it
		for i, b := range got.Blocks {
			if b.Replicas[0] != i%3 {
				t.Errorf("%s: block %d on %v, want round-robin from node %d", tc.name, i, b.Replicas, i%3)
			}
			if len(b.Data) == 0 {
				continue
			}
			p := partOf(got, &b.Data[0], len(b.Data))
			if p < 0 {
				t.Fatalf("%s: block %d %q straddles two parts", tc.name, i, b.Data)
			}
			for len(cut) <= p {
				cut = append(cut, nil)
			}
			cut[p] = append(cut[p], b.Data...)
		}
		for p, part := range got.parts {
			if len(part) > 0 && !bytes.Equal(cut[p], part) {
				t.Errorf("%s: part %d is cut into %q, want %q", tc.name, p, cut[p], part)
			}
		}
	}
}

// allLines reads every block of f through Lines and, at two widths,
// LineBatches, checks that they agree, and returns the file's lines.
func allLines(t *testing.T, f *File) []string {
	t.Helper()
	var lines []string
	for b := 0; b < f.NumBlocks(); b++ {
		gathered := f.Lines(b)
		for _, width := range []int{1, 3} {
			if got := slices.Concat(lineBatches(t, f, b, width)...); !sameLines(got, gathered) {
				t.Fatalf("block %d width %d: LineBatches %q, Lines %q", b, width, got, gathered)
			}
		}
		lines = append(lines, gathered...)
	}
	return lines
}

// allRecords does the same for FixedRecords and FixedRecordBatches.
func allRecords(t *testing.T, f *File, recSize int) [][]byte {
	t.Helper()
	var recs [][]byte
	buf := make([][]byte, 2)
	for b := 0; b < f.NumBlocks(); b++ {
		gathered := f.FixedRecords(b, recSize)
		var streamed [][]byte
		_ = f.FixedRecordBatches(b, recSize, buf, func(batch [][]byte) error {
			streamed = append(streamed, batch...)
			return nil
		})
		if fmt.Sprint(streamed) != fmt.Sprint(gathered) {
			t.Fatalf("block %d: FixedRecordBatches %q, FixedRecords %q", b, streamed, gathered)
		}
		recs = append(recs, gathered...)
	}
	return recs
}

// TestWritePartsViewsItsParts: committing a sink's parts copies nothing. Every
// line and record of a WriteParts file lies inside one of the parts it was
// given, and WriteParts allocates block metadata only, nothing proportional
// to the bytes it stores.
func TestWritePartsViewsItsParts(t *testing.T) {
	const nParts = 8
	parts := make([][]byte, nParts)
	for i := range parts {
		parts[i] = bytes.Repeat([]byte(fmt.Sprintf("part %d, a line of text\n", i)), 128<<10/24)
	}
	fs := New(3, 8<<10, 2)
	f := fs.WriteParts("out", parts)
	lines, recs := make([]string, 64), make([][]byte, 64)
	for b := 0; b < f.NumBlocks(); b++ {
		_ = f.LineBatches(b, lines, func(batch []string) error {
			for _, line := range batch {
				if !inStorage(f, unsafe.StringData(line), len(line)) {
					t.Fatalf("block %d: line %q is not a view of one part", b, line)
				}
			}
			return nil
		})
		_ = f.FixedRecordBatches(b, 24, recs, func(batch [][]byte) error {
			for _, rec := range batch {
				if !inStorage(f, &rec[0], len(rec)) {
					t.Fatalf("block %d: a record is not a view of one part", b)
				}
			}
			return nil
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 10
	for range rounds {
		fs.WriteParts("out", parts)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > uint64(f.Size())/16 {
		t.Errorf("WriteParts of %d bytes in %d blocks allocates %d bytes, want block metadata only", f.Size(), f.NumBlocks(), per)
	}
}
