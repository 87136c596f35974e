package dataflow_test

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/engine/flink"
	"repro/internal/engine/spark"
)

// The borrow contract: a fused chain hands its consumer batches whose storage
// the next batch overwrites, so whatever the consumer is — an action, a
// shuffle writer, a combiner, a sorter, a join's build side, the block
// manager, a sink, an iteration body — it must have copied, folded or encoded
// a batch before it returns. These tests run one FlatMap→Map chain, long
// enough that every partition is many batches, into each consumer kind and
// hold the result to the same consumer over FromSlice of the chain's output
// computed by a plain loop — stable slices that nothing overwrites.

type kv = core.Pair[int64, int64]

const (
	borrowInputs = 2400 // × fan-out 3 over 2 partitions: 3600 records a partition, ≥ 10 batches at width 256
	borrowKeys   = 97
)

// borrowChain is the plan under test: 3 records per input, keyed so that
// every key repeats and every (key, value) pair is distinct.
func borrowChain(s *dataflow.Session) *dataflow.Dataset[kv] {
	in := make([]int64, borrowInputs)
	for i := range in {
		in[i] = int64(i)
	}
	triple := dataflow.FlatMap(dataflow.FromSlice(s, in, 2), func(v int64) []int64 {
		return []int64{3 * v, 3*v + 1, 3*v + 2}
	})
	return dataflow.MapToPair(triple, func(x int64) kv { return core.KV(x%borrowKeys, x) })
}

// borrowChainOutput is what borrowChain produces, computed by a plain loop.
func borrowChainOutput() []kv {
	out := make([]kv, 0, 3*borrowInputs)
	for x := int64(0); x < 3*borrowInputs; x++ {
		out = append(out, core.KV(x%borrowKeys, x))
	}
	return out
}

func sortedPairs(recs []kv) string {
	recs = slices.Clone(recs)
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Key != recs[j].Key {
			return recs[i].Key < recs[j].Key
		}
		return recs[i].Value < recs[j].Value
	})
	return fmt.Sprint(recs)
}

// borrowConsumer runs one consumer kind over the chain and renders what it
// produced canonically. native marks the kinds that continue on the engine's
// own API through the lowering hooks, which mapreduce does not have. The
// reference is run over FromSlice of the chain's output, unless run puts a
// narrow operator of its own in front of the consumer: ref then computes
// that operator's output by a plain loop too.
type borrowConsumer struct {
	name   string
	native bool
	run    func(s *dataflow.Session, d *dataflow.Dataset[kv]) (string, error)
	ref    func(s *dataflow.Session, out []kv) (string, error)
}

var borrowConsumers = []borrowConsumer{
	{name: "Collect", run: func(s *dataflow.Session, d *dataflow.Dataset[kv]) (string, error) {
		recs, err := dataflow.Collect(d)
		return sortedPairs(recs), err
	}},
	{name: "Count", run: func(s *dataflow.Session, d *dataflow.Dataset[kv]) (string, error) {
		n, err := dataflow.Count(d)
		return fmt.Sprint(n), err
	}},
	{name: "ReduceByKey", run: func(s *dataflow.Session, d *dataflow.Dataset[kv]) (string, error) {
		recs, err := dataflow.Collect(dataflow.ReduceByKey(d, func(a, b int64) int64 { return a + b }))
		return sortedPairs(recs), err
	}},
	{name: "SortByKey", run: func(s *dataflow.Session, d *dataflow.Dataset[kv]) (string, error) {
		part := core.NewRangePartitioner(3, []int64{10, 30, 50, 70, 90}, func(a, b int64) bool { return a < b })
		recs, err := dataflow.Collect(dataflow.SortByKey(d, part))
		if !sort.SliceIsSorted(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key }) {
			return "", errors.New("SortByKey output is not in key order")
		}
		return sortedPairs(recs), err
	}},
	{name: "Cached read twice", run: func(s *dataflow.Session, d *dataflow.Dataset[kv]) (string, error) {
		d.Cached()
		first, err := dataflow.Collect(d)
		if err != nil {
			return "", err
		}
		n, err := dataflow.Count(d)
		if err != nil {
			return "", err
		}
		second, err := dataflow.Collect(d)
		return fmt.Sprint(sortedPairs(first), n, sortedPairs(second)), err
	}},
	{name: "SaveBytes", run: func(s *dataflow.Session, d *dataflow.Dataset[kv]) (string, error) {
		err := dataflow.SaveBytes(d, "borrow-out", func(dst []byte, p kv) []byte {
			return fmt.Appendf(dst, "%d=%d;", p.Key, p.Value)
		})
		if err != nil {
			return "", err
		}
		f, err := s.FS().Open("borrow-out")
		if err != nil {
			return "", err
		}
		return string(f.Contents()), nil
	}},
	{name: "iteration body", run: func(s *dataflow.Session, d *dataflow.Dataset[kv]) (string, error) {
		init := []kv{{Key: 0, Value: 1}, {Key: 1, Value: 2}, {Key: 2, Value: 3}}
		it := dataflow.NewIteration(d, init, 3,
			func(p kv, st []kv) kv {
				return core.KV(p.Key%3, p.Value%1000+st[p.Key%3].Value%7)
			},
			func(a, b int64) int64 { return a + b },
			func(_ int64, sum int64) int64 { return sum })
		state, err := it.Run()
		return fmt.Sprint(state), err
	}},
	{name: "GroupByKey", native: true, run: func(s *dataflow.Session, d *dataflow.Dataset[kv]) (string, error) {
		var groups []core.Pair[int64, []int64]
		var err error
		if s.Name() == "spark" {
			var r *spark.RDD[kv]
			if r, err = dataflow.SparkRDDOf(d); err == nil {
				groups, err = spark.Collect(spark.GroupByKey(r, 2))
			}
		} else {
			var ds *flink.DataSet[kv]
			if ds, err = dataflow.FlinkDataSetOf(d); err == nil {
				groups, err = flink.Collect(flink.GroupReduce(flink.GroupBy(ds, func(p kv) int64 { return p.Key }),
					func(k int64, ps []kv) []core.Pair[int64, []int64] {
						vs := make([]int64, len(ps))
						for i, p := range ps {
							vs[i] = p.Value
						}
						return []core.Pair[int64, []int64]{core.KV(k, vs)}
					}))
			}
		}
		for _, g := range groups {
			slices.Sort(g.Value)
		}
		sort.Slice(groups, func(i, j int) bool { return groups[i].Key < groups[j].Key })
		return fmt.Sprint(groups), err
	}},
	{name: "Join, chain on the left", native: true, run: func(s *dataflow.Session, d *dataflow.Dataset[kv]) (string, error) {
		return borrowJoin(s, d, true)
	}},
	{name: "Join, chain on the right", native: true, run: func(s *dataflow.Session, d *dataflow.Dataset[kv]) (string, error) {
		return borrowJoin(s, d, false)
	}},
	{name: "Distinct", native: true,
		// Distinct over the keys' residues: 97 keys fold to 5 witnesses.
		run: func(s *dataflow.Session, d *dataflow.Dataset[kv]) (string, error) {
			return borrowDistinct(s, dataflow.Map(d, func(p kv) int64 { return p.Key % 5 }))
		},
		ref: func(s *dataflow.Session, out []kv) (string, error) {
			residues := make([]int64, len(out))
			for i, p := range out {
				residues[i] = p.Key % 5
			}
			return borrowDistinct(s, dataflow.FromSlice(s, residues, 2))
		}},
}

// borrowDistinct runs the engine's own Distinct over five.
func borrowDistinct(s *dataflow.Session, five *dataflow.Dataset[int64]) (string, error) {
	var out []int64
	var err error
	if s.Name() == "spark" {
		var r *spark.RDD[int64]
		if r, err = dataflow.SparkRDDOf(five); err == nil {
			out, err = spark.Collect(spark.Distinct(r))
		}
	} else {
		var ds *flink.DataSet[int64]
		if ds, err = dataflow.FlinkDataSetOf(five); err == nil {
			out, err = flink.Collect(flink.Distinct(ds, func(v int64) int64 { return v }))
		}
	}
	slices.Sort(out)
	return fmt.Sprint(out), err
}

// borrowJoin joins the chain with a small keyed table on the engine's own
// join, the chain as the left (build) or the right (probe) input.
func borrowJoin(s *dataflow.Session, d *dataflow.Dataset[kv], chainLeft bool) (string, error) {
	table := []kv{{Key: 3, Value: -3}, {Key: 50, Value: -50}, {Key: 96, Value: -96}, {Key: 500, Value: -500}}
	var rows []string
	if s.Name() == "spark" {
		r, err := dataflow.SparkRDDOf(d)
		if err != nil {
			return "", err
		}
		left, right := r, spark.Parallelize(r.Context(), table, 2)
		if !chainLeft {
			left, right = right, left
		}
		joined, err := spark.Collect(spark.Join(left, right, 2))
		if err != nil {
			return "", err
		}
		for _, j := range joined {
			rows = append(rows, fmt.Sprint(j.Key, j.Value.Left, j.Value.Right))
		}
	} else {
		ds, err := dataflow.FlinkDataSetOf(d)
		if err != nil {
			return "", err
		}
		left, right := ds, flink.FromSlice(s.Handle().(*flink.Env), table, 2)
		if !chainLeft {
			left, right = right, left
		}
		key := func(p kv) int64 { return p.Key }
		joined, err := flink.Collect(flink.Join(left, right, key, key, 2))
		if err != nil {
			return "", err
		}
		for _, j := range joined {
			rows = append(rows, fmt.Sprint(j.Key, j.Value.Left.Value, j.Value.Right.Value))
		}
	}
	sort.Strings(rows)
	return fmt.Sprint(rows), nil
}

// The same contract starts at the file sources: TextFile and BinaryFile
// stream a split through one reader buffer per task, so a consumer sitting
// directly on a source — no narrow operator between — is lent that buffer and
// must have copied, folded or encoded it before it returns. The records
// themselves are views of the stored file and may be kept. Each source row
// below is held to a reference computed from a plain strings.Split (or a
// fixed-width cut) of the input, over splits of ten and more batches.

const (
	sourceRecords = 12000 // ≤ 6 bytes each over 16 KiB blocks: ≈ 2700 a split, ≥ 10 batches at width 256
	sourceRecSize = 6
)

// sourceInputs returns the text and fixed-width inputs — the same values,
// with duplicates, one a line and one a record.
func sourceInputs() (text, bin []byte) {
	for i := 0; i < sourceRecords; i++ {
		text = fmt.Appendf(text, "%d\n", i*7919%5003)
		bin = fmt.Appendf(bin, "%06d", i*7919%5003)
	}
	return text, bin
}

func sortedStrings(recs []string) string {
	recs = slices.Clone(recs)
	sort.Strings(recs)
	return strings.Join(recs, ",")
}

// sourceConsumer runs one consumer kind directly over the file source src of
// records T, rendered by str, and says what a plain cut of the input — ref,
// in file order — makes it produce.
type sourceConsumer[T any] struct {
	name   string
	native bool
	run    func(s *dataflow.Session, src *dataflow.Dataset[T]) (string, error)
	want   func(ref []string) string
}

// sourceConsumers lists the consumer kinds every source is run into. str
// renders a record as the string the reference holds for it; parse is its
// inverse.
func sourceConsumers[T any](str func(T) string, parse func(string) T) []sourceConsumer[T] {
	render := func(recs []T) []string {
		out := make([]string, len(recs))
		for i, r := range recs {
			out[i] = str(r)
		}
		return out
	}
	return []sourceConsumer[T]{
		{name: "Collect",
			run: func(s *dataflow.Session, src *dataflow.Dataset[T]) (string, error) {
				recs, err := dataflow.Collect(src)
				return sortedStrings(render(recs)), err
			},
			want: sortedStrings},
		{name: "Count",
			run: func(s *dataflow.Session, src *dataflow.Dataset[T]) (string, error) {
				n, err := dataflow.Count(src)
				return fmt.Sprint(n), err
			},
			want: func(ref []string) string { return fmt.Sprint(len(ref)) }},
		{name: "Cached read by two actions",
			run: func(s *dataflow.Session, src *dataflow.Dataset[T]) (string, error) {
				src.Cached()
				first, err := dataflow.Collect(src)
				if err != nil {
					return "", err
				}
				n, err := dataflow.Count(src)
				if err != nil {
					return "", err
				}
				second, err := dataflow.Collect(src)
				return fmt.Sprint(sortedStrings(render(first)), n, sortedStrings(render(second))), err
			},
			want: func(ref []string) string { return fmt.Sprint(sortedStrings(ref), len(ref), sortedStrings(ref)) }},
		{name: "SaveAsText",
			run: func(s *dataflow.Session, src *dataflow.Dataset[T]) (string, error) {
				if err := dataflow.SaveAsText(src, "source-out"); err != nil {
					return "", err
				}
				f, err := s.FS().Open("source-out")
				if err != nil {
					return "", err
				}
				return sortedStrings(strings.Split(strings.TrimSuffix(string(f.Contents()), "\n"), "\n")), nil
			},
			want: func(ref []string) string {
				printed := make([]string, len(ref))
				for i, r := range ref {
					printed[i] = fmt.Sprint(parse(r))
				}
				return sortedStrings(printed)
			}},
		{name: "SortByKey after MapToPair",
			run: func(s *dataflow.Session, src *dataflow.Dataset[T]) (string, error) {
				pairs := dataflow.MapToPair(src, func(v T) core.Pair[string, int64] { return core.KV(str(v), int64(len(str(v)))) })
				part := core.NewRangePartitioner(3, []string{"2", "4", "6", "8"}, func(a, b string) bool { return a < b })
				recs, err := dataflow.Collect(dataflow.SortByKey(pairs, part))
				if !sort.SliceIsSorted(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key }) {
					return "", errors.New("SortByKey output is not in key order")
				}
				keys := make([]string, len(recs))
				for i, p := range recs {
					keys[i] = fmt.Sprint(p.Key, ":", p.Value)
				}
				return strings.Join(keys, ","), err
			},
			want: func(ref []string) string {
				keys := slices.Clone(ref)
				sort.Strings(keys)
				for i, k := range keys {
					keys[i] = fmt.Sprint(k, ":", len(k))
				}
				return strings.Join(keys, ",")
			}},
	}
}

// textDistinct is the engines' own Distinct directly over the text source.
var textDistinct = sourceConsumer[string]{name: "Distinct", native: true,
	run: func(s *dataflow.Session, src *dataflow.Dataset[string]) (string, error) {
		var out []string
		var err error
		if s.Name() == "spark" {
			var r *spark.RDD[string]
			if r, err = dataflow.SparkRDDOf(src); err == nil {
				out, err = spark.Collect(spark.Distinct(r))
			}
		} else {
			var ds *flink.DataSet[string]
			if ds, err = dataflow.FlinkDataSetOf(src); err == nil {
				out, err = flink.Collect(flink.Distinct(ds, func(v string) string { return v }))
			}
		}
		return sortedStrings(out), err
	},
	want: func(ref []string) string {
		ref = slices.Clone(ref)
		sort.Strings(ref)
		return strings.Join(slices.Compact(ref), ",")
	}}

// runSourceConsumers holds every row to its reference on every engine and
// width; open builds the source over the session's copy of the input.
func runSourceConsumers[T any](t *testing.T, what string, rows []sourceConsumer[T], ref []string,
	open func(s *dataflow.Session) *dataflow.Dataset[T]) {
	for _, engine := range dataflow.Names() {
		for _, c := range rows {
			if c.native && engine == "mapreduce" {
				continue
			}
			want := c.want(ref)
			for _, width := range []int{1, 3, 256} {
				s := vectorSession(t, engine, width)
				got, err := c.run(s, open(s))
				if err != nil {
					t.Fatalf("%s, %s on %s, width %d: %v", engine, c.name, what, width, err)
				}
				if got != want {
					t.Errorf("%s, %s on %s, width %d: the source's consumer produced\n%.300s\na plain cut of the input gives\n%.300s",
						engine, c.name, what, width, got, want)
				}
			}
		}
	}
}

func TestConsumersCopyBorrowedBatches(t *testing.T) {
	text, bin := sourceInputs()
	same := func(v string) string { return v }
	lines := strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")
	recs := make([]string, 0, sourceRecords)
	for off := 0; off < len(bin); off += sourceRecSize {
		recs = append(recs, string(bin[off:off+sourceRecSize]))
	}
	runSourceConsumers(t, "TextFile", append(sourceConsumers(same, same), textDistinct), lines,
		func(s *dataflow.Session) *dataflow.Dataset[string] {
			s.FS().WriteFile("source-text", text)
			return dataflow.TextFile(s, "source-text")
		})
	runSourceConsumers(t, "BinaryFile", sourceConsumers(func(v []byte) string { return string(v) }, func(r string) []byte { return []byte(r) }), recs,
		func(s *dataflow.Session) *dataflow.Dataset[[]byte] {
			s.FS().WriteFile("source-bin", bin)
			return dataflow.BinaryFile(s, "source-bin", sourceRecSize)
		})

	for _, engine := range dataflow.Names() {
		for _, c := range borrowConsumers {
			if c.native && engine == "mapreduce" {
				continue
			}
			s := vectorSession(t, engine, 256)
			ref := c.ref
			if ref == nil {
				ref = func(s *dataflow.Session, out []kv) (string, error) {
					return c.run(s, dataflow.FromSlice(s, out, 2))
				}
			}
			want, err := ref(s, borrowChainOutput())
			if err != nil {
				t.Fatalf("%s, %s, reference: %v", engine, c.name, err)
			}
			for _, width := range []int{1, 3, 256} {
				s := vectorSession(t, engine, width)
				got, err := c.run(s, borrowChain(s))
				if err != nil {
					t.Fatalf("%s, %s, width %d: %v", engine, c.name, width, err)
				}
				if got != want {
					t.Errorf("%s, %s, width %d: the chain's consumer produced\n%.300s\nthe same consumer over stable slices\n%.300s",
						engine, c.name, width, got, want)
				}
			}
		}
	}
}

// TestKeptBatchIsOverwritten shows what the test above is sensitive to: a
// consumer that holds on to the slices it was lent, instead of their
// records, finds the following batches' records in them.
func TestKeptBatchIsOverwritten(t *testing.T) {
	s := vectorSession(t, "flink", 3)
	ds, err := dataflow.FlinkDataSetOf(borrowChain(s))
	if err != nil {
		t.Fatal(err)
	}
	kept := make([][][]kv, ds.Parallelism())
	copied := make([][]kv, ds.Parallelism())
	err = flink.ForEach(ds, "keep", func(p int, batch []kv) error {
		kept[p] = append(kept[p], batch)
		copied[p] = append(copied[p], batch...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range kept {
		if len(kept[p]) < 10 {
			t.Fatalf("partition %d arrived in %d batches; the chain should stream many", p, len(kept[p]))
		}
		if slices.Equal(slices.Concat(kept[p]...), copied[p]) {
			t.Errorf("partition %d: every kept batch still holds its own records; batches are not borrowed scratch any more, and TestConsumersCopyBorrowedBatches no longer proves anything", p)
		}
	}
}

// TestKeptSourceBatchIsOverwritten is the same sensitivity check at the
// source: the slices a file source lends are its reader's one buffer, so a
// consumer that keeps them finds later lines in them — while the lines it
// copied out of them stay what they were, being views of the stored file.
func TestKeptSourceBatchIsOverwritten(t *testing.T) {
	s := vectorSession(t, "flink", 3)
	text, _ := sourceInputs()
	s.FS().WriteFile("source-text", text)
	ds, err := dataflow.FlinkDataSetOf(dataflow.TextFile(s, "source-text"))
	if err != nil {
		t.Fatal(err)
	}
	kept := make([][][]string, ds.Parallelism())
	copied := make([][]string, ds.Parallelism())
	err = flink.ForEach(ds, "keep", func(p int, batch []string) error {
		kept[p] = append(kept[p], batch)
		copied[p] = append(copied[p], batch...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for p := range kept {
		if len(kept[p]) < 10 {
			t.Fatalf("subtask %d read its splits in %d batches; the source should stream many", p, len(kept[p]))
		}
		if slices.Equal(slices.Concat(kept[p]...), copied[p]) {
			t.Errorf("subtask %d: every kept batch still holds its own lines; source batches are not the reader's buffer any more, and the source rows of TestConsumersCopyBorrowedBatches no longer prove anything", p)
		}
		all = append(all, copied[p]...)
	}
	if want := strings.Split(strings.TrimSuffix(string(text), "\n"), "\n"); sortedStrings(all) != sortedStrings(want) {
		t.Error("the lines copied out of the source's batches are not the file's lines")
	}
}

// routeOneOut partitions evenly except for one poisoned key, which it routes
// outside its own range: the exchange's writer rejects the record.
type routeOneOut struct{ poison int64 }

func (routeOneOut) NumPartitions() int { return 2 }
func (r routeOneOut) Partition(k int64) int {
	if k == r.poison {
		return 9
	}
	return int(k % 2)
}

// TestFailingExchangeWriteEndsFlinkJob fails an exchange's write under a
// fused chain, early in a long partition. The job must end — the failed
// producer still closes its sink, so the exchange's consumers see
// end-of-input — with the writer's error, and the kernel must not keep
// pushing the rest of the partition through the chain into the dead sink.
func TestFailingExchangeWriteEndsFlinkJob(t *testing.T) {
	const n = 200_000
	s := vectorSession(t, "flink", 256)
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(i)
	}
	var mapped atomic.Int64
	plus := dataflow.Map(dataflow.FromSlice(s, in, 2), func(v int64) int64 { return v + 1 })
	pairs := dataflow.MapToPair(plus, func(v int64) kv {
		mapped.Add(1)
		return core.KV(v, v)
	})
	sorted := dataflow.SortByKey(pairs, core.Partitioner[int64](routeOneOut{poison: 1000}))

	done := make(chan error, 1)
	go func() {
		_, err := dataflow.Count(sorted)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || strings.Count(err.Error(), "routed to partition 9") != 1 {
			t.Fatalf("err = %v, want the exchange writer's routing error, once", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the job did not end after its exchange write failed")
	}
	// Partition 0 holds the poisoned key in its fifth batch and stops there;
	// partition 1 runs to its end.
	if got := mapped.Load(); got > n/2+2*256*5 {
		t.Errorf("the chain mapped %d records; it should have stopped feeding the failed sink after about %d", got, n/2+256*4)
	}
}
