package dfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

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

// TestWritePartsMatchesWriteFile: the stitched file of a parallel sink is the
// file WriteFile makes of the concatenation — same blocks on the same nodes,
// same contents and line splits — for no parts at all, for parts that are
// all empty (one empty block, like an empty WriteFile) and for parts that
// end inside, on and across block boundaries.
func TestWritePartsMatchesWriteFile(t *testing.T) {
	cases := map[string][][]byte{
		"zero parts":      nil,
		"all-empty parts": {nil, {}, nil},
		"straddling parts": {
			[]byte("ab\nc"), []byte("defgh\nijklmnop\nq"), nil, []byte("rs\ntuvw"), []byte("\n"), []byte("xyz"),
		},
		"parts on block boundaries": {[]byte("01234567"), []byte("89abcdef01234567"), []byte("x")},
	}
	for name, parts := range cases {
		whole, stitched := New(3, 8, 2), New(3, 8, 2)
		want := whole.WriteFile("f", bytes.Join(parts, nil))
		got := stitched.WriteParts("f", parts)
		if opened, err := stitched.Open("f"); err != nil || opened != got {
			t.Fatalf("%s: Open after WriteParts = %v, %v", name, opened, err)
		}
		if got.Size() != want.Size() || got.NumBlocks() != want.NumBlocks() {
			t.Fatalf("%s: %d bytes in %d blocks, want %d in %d", name, got.Size(), got.NumBlocks(), want.Size(), want.NumBlocks())
		}
		if !bytes.Equal(got.Contents(), want.Contents()) {
			t.Errorf("%s: contents %q, want %q", name, got.Contents(), want.Contents())
		}
		for i := range want.Blocks {
			if !bytes.Equal(got.Blocks[i].Data, want.Blocks[i].Data) || fmt.Sprint(got.Blocks[i].Replicas) != fmt.Sprint(want.Blocks[i].Replicas) {
				t.Errorf("%s: block %d = %q on %v, want %q on %v", name, i,
					got.Blocks[i].Data, got.Blocks[i].Replicas, want.Blocks[i].Data, want.Blocks[i].Replicas)
			}
			if g, w := got.Lines(i), want.Lines(i); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Errorf("%s: Lines(%d) = %q, want %q", name, i, g, w)
			}
		}
	}
}
