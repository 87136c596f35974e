package dataflow_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
)

// appendString is the binary encoder of these tests: the record's bytes and
// nothing else, so an empty record encodes to zero bytes.
func appendString(dst []byte, v string) []byte { return append(dst, v...) }

// numbered returns n distinct decimal strings, zero-padded so they sort as
// they count.
func numbered(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%05d", i)
	}
	return out
}

// TestSinksMatchCollect holds both sinks, on every engine, to the bytes a
// driver would produce from Collect and the same encoder: the tasks encode
// their partitions apart and the driver commits them as the file's parts,
// and neither an empty
// partition, a record of no bytes, a partition that reaches flink's sink in
// many batches nor a file of several blocks may show in the result. The
// sink's own counters are checked where no shuffle writes beside it.
func TestSinksMatchCollect(t *testing.T) {
	cases := []struct {
		name    string
		shuffle bool
		build   func(s *dataflow.Session) *dataflow.Dataset[string]
	}{
		{name: "empty dataset", build: func(s *dataflow.Session) *dataflow.Dataset[string] {
			return dataflow.FromSlice(s, []string{}, 2)
		}},
		{name: "empty partition among full ones", build: func(s *dataflow.Session) *dataflow.Dataset[string] {
			return dataflow.Filter(dataflow.FromSlice(s, numbered(100), 4),
				func(v string) bool { return v >= "00025" })
		}},
		{name: "records of zero bytes", build: func(s *dataflow.Session) *dataflow.Dataset[string] {
			return dataflow.FromSlice(s, []string{"", "", "a", "", "bc", "", "", "d", ""}, 3)
		}},
		{name: "many batches, several blocks", build: func(s *dataflow.Session) *dataflow.Dataset[string] {
			// 5000 lines in a 16 KiB-block DFS: four input splits, partitions
			// far longer than exec.batch.size, 40 KB of output.
			s.FS().WriteFile("in", []byte(strings.Join(numbered(5000), "\n")+"\n"))
			return dataflow.Map(dataflow.TextFile(s, "in"), func(l string) string { return "<" + l + ">" })
		}},
		{name: "after a shuffle", shuffle: true, build: func(s *dataflow.Session) *dataflow.Dataset[string] {
			keys := numbered(3000)
			for i := range keys { // a fixed shuffle of the input order
				j := (i * 7919) % len(keys)
				keys[i], keys[j] = keys[j], keys[i]
			}
			part := core.NewRangePartitioner(3, numbered(3000)[500:2500], func(a, b string) bool { return a < b })
			pairs := dataflow.MapToPair(dataflow.FromSlice(s, keys, 2),
				func(k string) core.Pair[string, string] { return core.KV(k, "") })
			return dataflow.Map(dataflow.SortByKey(pairs, part),
				func(p core.Pair[string, string]) string { return p.Key })
		}},
	}
	for _, engine := range dataflow.Names() {
		for _, tc := range cases {
			s := session(t, engine)
			d := tc.build(s)
			recs, err := dataflow.Collect(d)
			if err != nil {
				t.Fatalf("%s, %s: Collect: %v", engine, tc.name, err)
			}
			var wantBytes, wantText []byte
			for _, v := range recs {
				wantBytes = appendString(wantBytes, v)
				wantText = append(fmt.Append(wantText, v), '\n')
			}
			sinks := []struct {
				name string
				save func() error
				want []byte
			}{
				{"SaveBytes", func() error { return dataflow.SaveBytes(d, "out", appendString) }, wantBytes},
				{"SaveAsText", func() error { return dataflow.SaveAsText(d, "out") }, wantText},
			}
			for _, sink := range sinks {
				before := s.Metrics().Snapshot()
				if err := sink.save(); err != nil {
					t.Fatalf("%s, %s: %s: %v", engine, tc.name, sink.name, err)
				}
				f, err := s.FS().Open("out")
				if err != nil {
					t.Fatalf("%s, %s: %s: %v", engine, tc.name, sink.name, err)
				}
				if got := f.Contents(); !bytes.Equal(got, sink.want) {
					t.Errorf("%s, %s: %s wrote %d bytes, Collect + encoder gives %d; first difference at %d",
						engine, tc.name, sink.name, len(got), len(sink.want), firstDiff(got, sink.want))
				}
				// The file is the tasks' parts, each cut into blocks of its
				// own: the blocks tile the output, none is over the block
				// size, and there are at least as many as the bytes need.
				var tiled []byte
				for _, b := range f.Blocks {
					if len(b.Data) > 16*1024 {
						t.Errorf("%s, %s: %s: a block of %d bytes", engine, tc.name, sink.name, len(b.Data))
					}
					tiled = append(tiled, b.Data...)
				}
				if least := max(1, (len(sink.want)+16*1024-1)/(16*1024)); f.NumBlocks() < least || !bytes.Equal(tiled, sink.want) {
					t.Errorf("%s, %s: %s: %d blocks holding %d bytes, want at least %d holding the output",
						engine, tc.name, sink.name, f.NumBlocks(), len(tiled), least)
				}
				after := s.Metrics().Snapshot()
				if got := after.RecordsWritten - before.RecordsWritten; got != int64(len(recs)) {
					t.Errorf("%s, %s: %s: RecordsWritten rose by %d, want %d", engine, tc.name, sink.name, got, len(recs))
				}
				if got := after.DiskBytesWritten - before.DiskBytesWritten; !tc.shuffle && got != int64(len(sink.want)) {
					t.Errorf("%s, %s: %s: DiskBytesWritten rose by %d, want %d", engine, tc.name, sink.name, got, len(sink.want))
				}
			}
		}
	}
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestFailedSinkWritesNoFile: the file appears only when every task of the
// sink job succeeded. An encoder that panics inside a task — alone, or in
// every task at once, behind a narrow chain or behind a shuffle — comes back
// as the job's error and not as a crash, and a job whose tasks cannot read
// their input fails the same way; neither leaves a file or counts a record.
func TestFailedSinkWritesNoFile(t *testing.T) {
	for _, engine := range dataflow.Names() {
		for _, shuffled := range []bool{false, true} {
			for _, bad := range []string{"00777", ""} { // one record, or every record
				s := session(t, engine)
				d := dataflow.FromSlice(s, numbered(2000), 2)
				if shuffled {
					part := core.NewRangePartitioner(2, numbered(2000), func(a, b string) bool { return a < b })
					pairs := dataflow.MapToPair(d, func(k string) core.Pair[string, string] { return core.KV(k, "") })
					d = dataflow.Map(dataflow.SortByKey(pairs, part), func(p core.Pair[string, string]) string { return p.Key })
				}
				err := dataflow.SaveBytes(d, "out", func(dst []byte, v string) []byte {
					if bad == "" || v == bad {
						panic("encoder bug")
					}
					return append(dst, v...)
				})
				if err == nil || !strings.Contains(err.Error(), "encoder bug") {
					t.Errorf("%s shuffled=%v bad=%q: SaveBytes = %v, want the encoder's panic as an error", engine, shuffled, bad, err)
				}
				if s.FS().Exists("out") {
					t.Errorf("%s shuffled=%v bad=%q: a failed sink left a file behind", engine, shuffled, bad)
				}
				if n := s.Metrics().RecordsWritten.Load(); n != 0 {
					t.Errorf("%s shuffled=%v bad=%q: a failed sink counted %d records written", engine, shuffled, bad, n)
				}
			}
		}

		s := session(t, engine)
		if err := dataflow.SaveAsText(dataflow.TextFile(s, "no-such-input"), "out"); err == nil {
			t.Errorf("%s: SaveAsText of a missing input succeeded", engine)
		}
		if s.FS().Exists("out") {
			t.Errorf("%s: a sink whose source failed left a file behind", engine)
		}
	}
}
