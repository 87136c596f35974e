package workloads

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dfs"
)

// Tera Sort is defined once in unified.go. This file holds the
// engine-neutral benchmark plumbing around it: the record split both map
// functions share, TeraGen key sampling for the shared range partitioner
// and the TeraValidate output check.

// teraPair splits a TeraGen record into its key and payload, both views of
// the stored input (dfs.RecordString): the map function copies nothing.
func teraPair(r []byte) core.Pair[string, string] {
	rec := dfs.RecordString(r)
	return core.KV(rec[:datagen.TeraKeySize], rec[datagen.TeraKeySize:])
}

// TeraPartitioner builds the shared range partitioner every engine uses,
// seeded from a key sample of the input — the paper stresses that the same
// Hadoop-style TotalOrderPartitioner is used on all sides for fairness.
func TeraPartitioner(data []byte, partitions int) *core.RangePartitioner[string] {
	sample := datagen.TeraKeySample(data, 50)
	return core.NewRangePartitioner(partitions, sample, func(a, b string) bool { return a < b })
}

// VerifyTeraSorted checks a TeraSort output file: correct length and
// globally non-decreasing keys. It is the validation step of the original
// benchmark (TeraValidate).
func VerifyTeraSorted(fs *dfs.FS, name string, wantRecords int) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	data := f.Contents()
	if len(data) != wantRecords*datagen.TeraRecordSize {
		return fmt.Errorf("terasort output has %d bytes, want %d records × %d",
			len(data), wantRecords, datagen.TeraRecordSize)
	}
	keys := make([]string, wantRecords)
	for i := 0; i < wantRecords; i++ {
		keys[i] = string(data[i*datagen.TeraRecordSize : i*datagen.TeraRecordSize+datagen.TeraKeySize])
	}
	if !sort.StringsAreSorted(keys) {
		return fmt.Errorf("terasort output is not globally sorted")
	}
	return nil
}
