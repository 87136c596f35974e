package streaming

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dfs"
)

func testFS() *dfs.FS { return dfs.New(2, 16*core.KB, 1) }

func testSession(t *testing.T, engine string, conf *core.Config, fs *dfs.FS) *dataflow.Session {
	t.Helper()
	spec := cluster.Spec{Nodes: 2, CoresPerNode: 4, MemPerNode: core.GB, DiskSeqMiBps: 200, NetMiBps: 200}
	rt, err := cluster.NewRuntime(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dataflow.Open(engine, dataflow.WithConfig(conf), dataflow.WithRuntime(rt), dataflow.WithFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// streamConf returns a config tuned for the per-event exchange: tiny
// buffers so every record flushes immediately, bounded flink parallelism.
func streamConf() *core.Config {
	conf := core.NewConfig()
	conf.SetInt(core.FlinkDefaultParallelism, 4)
	conf.SetBytes(core.BufferSize, 64)
	return conf
}

func TestLogAppendPollSealReplay(t *testing.T) {
	fs := testFS()
	l := NewLog[int64](fs, "events", 2)
	var fake int64 = 1000
	l.SetClock(func() int64 { fake += 10; return fake })

	if _, err := l.AppendBatch(0, []int64{5, 7}, []int64{50, 70}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, 6, 60); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(0, 9, 90); err != nil {
		t.Fatal(err)
	}
	if got := l.End(0); got != 3 {
		t.Fatalf("End(0) = %d, want 3", got)
	}

	read := func(lg *Log[int64], part int) []dataflow.StreamRecord[int64] {
		var out []dataflow.StreamRecord[int64]
		var off int64
		for {
			recs, next, err := lg.Poll(part, off, 100)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, recs...)
			if next == off {
				return out
			}
			off = next
		}
	}
	p0 := read(l, 0)
	if len(p0) != 3 || p0[0].Value != 50 || p0[2].Value != 90 {
		t.Fatalf("partition 0 = %+v", p0)
	}
	if p0[0].Offset != 0 || p0[1].Offset != 1 || p0[2].Offset != 2 {
		t.Fatalf("offsets = %+v", p0)
	}
	if p0[0].Time != 5 || p0[0].Ingest != 1010 {
		t.Fatalf("record 0 stamps = %+v", p0[0])
	}
	// Records of one AppendBatch share an ingest stamp; later appends differ.
	if p0[1].Ingest != p0[0].Ingest || p0[2].Ingest == p0[0].Ingest {
		t.Fatalf("ingest stamps = %d %d %d", p0[0].Ingest, p0[1].Ingest, p0[2].Ingest)
	}

	l.Seal()
	if _, err := l.Append(0, 1, 1); err == nil {
		t.Fatal("append after seal should fail")
	}

	// Replay: reopen from the DFS alone and require identical contents.
	re, err := OpenLog[int64](fs, "events", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Sealed() {
		t.Error("reopened log lost its seal")
	}
	r0, r1 := read(re, 0), read(re, 1)
	if len(r0) != 3 || len(r1) != 1 {
		t.Fatalf("replay lengths %d/%d, want 3/1", len(r0), len(r1))
	}
	for i, r := range r0 {
		if r != p0[i] {
			t.Errorf("replay record %d = %+v, want %+v", i, r, p0[i])
		}
	}
	if r1[0].Value != 60 || r1[0].Time != 6 {
		t.Errorf("replay partition 1 = %+v", r1[0])
	}
}

func TestWatermarksBoundedOutOfOrderness(t *testing.T) {
	now := time.Now()
	w := newWatermarks(2, 10*time.Millisecond, time.Second)
	if got := w.global(now); got != noWatermark {
		t.Fatalf("empty global = %d, want noWatermark", got)
	}
	if got := w.observe(0, 100, now); got != 90 {
		t.Fatalf("partition watermark = %d, want 90", got)
	}
	// Watermarks never regress.
	if got := w.observe(0, 50, now); got != 90 {
		t.Fatalf("watermark regressed to %d", got)
	}
	// Global is the min over data-bearing active partitions; a partition
	// that never produced data does not pin it at -inf.
	if got := w.global(now); got != 90 {
		t.Fatalf("global = %d, want 90 (empty partition must not stall)", got)
	}
	w.observe(1, 60, now)
	if got := w.global(now); got != 50 {
		t.Fatalf("global = %d, want min(90, 50)", got)
	}
}

// TestWatermarksIdlePartition is the regression test for the stalled-
// stream bug: a partition that delivered data once and then went silent
// must stop holding back the global watermark after the idle timeout.
func TestWatermarksIdlePartition(t *testing.T) {
	start := time.Now()
	w := newWatermarks(2, 0, 100*time.Millisecond)
	w.observe(0, 1000, start)
	w.observe(1, 50, start) // partition 1 then goes silent

	if got := w.global(start); got != 50 {
		t.Fatalf("global = %d, want 50 while both active", got)
	}
	// Partition 0 keeps flowing; partition 1 is last heard from at start.
	later := start.Add(150 * time.Millisecond)
	w.observe(0, 2000, later)
	if got := w.global(later); got != 2000 {
		t.Fatalf("global = %d, want 2000 once partition 1 idles out", got)
	}
	// The silent partition waking back up rejoins the minimum.
	w.observe(1, 60, later)
	if got := w.global(later); got != 60 {
		t.Fatalf("global = %d, want 60 after partition 1 returns", got)
	}
	// All partitions idle: the stream drains at the max.
	end := later.Add(time.Second)
	if got := w.global(end); got != 2000 {
		t.Fatalf("global = %d, want max(2000, 60) with everything idle", got)
	}
}

func TestWindowAssignmentBoundaries(t *testing.T) {
	cases := []struct {
		t, size, start int64
	}{
		{0, 100, 0},
		{99, 100, 0},
		{100, 100, 100}, // boundary record belongs to the window that starts there
		{101, 100, 100},
		{-1, 100, -100}, // negative times floor correctly
		{-100, 100, -100},
	}
	for _, c := range cases {
		w := dataflow.WindowOf(c.t, c.size)
		if w.Start != c.start || w.End != c.start+c.size {
			t.Errorf("WindowOf(%d, %d) = [%d, %d), want start %d", c.t, c.size, w.Start, w.End, c.start)
		}
	}
}

// TestLateRecordEdgeCases pins the drop rule on its boundaries: a record
// whose window end is exactly the partition watermark is late; one
// millisecond inside is kept.
func TestLateRecordEdgeCases(t *testing.T) {
	fs := testFS()
	l := NewLog[int64](fs, "late", 1)
	l.SetClock(func() int64 { return 0 })
	// bound = 10ms, window = 100ms. Event at t=210 drives the partition
	// watermark to 200, closing window [0,100) and [100,200).
	app := func(tm int64) {
		if _, err := l.Append(0, tm, tm); err != nil {
			t.Fatal(err)
		}
	}
	app(210)
	app(99)  // window [0,100): end 100 ≤ wm 200 → late
	app(199) // window [100,200): end 200 ≤ wm 200 → late (boundary)
	app(201) // window [200,300): end 300 > wm 200 → kept
	l.Seal()

	conf := streamConf()
	conf.SetDuration(core.StreamingWindowSize, 100*time.Millisecond)
	conf.SetDuration(core.StreamingWatermarkBound, 10*time.Millisecond)
	s := testSession(t, "spark", conf, fs)
	agg := identityAgg(s, l, conf)
	res, err := RunMicroBatch(agg, conf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Late != 2 {
		t.Errorf("late = %d, want 2 (boundary record must be late)", res.Stats.Late)
	}
	if res.Stats.Records != 2 {
		t.Errorf("records = %d, want 2", res.Stats.Records)
	}
	if len(res.Windows) != 1 || res.Windows[0].Count != 2 || res.Windows[0].Window.Start != 200 {
		t.Errorf("windows = %+v, want one [200,300) with 2 records", res.Windows)
	}
}

// identityAgg counts records per single key — the simplest aggregation,
// used where the test is about watermarks rather than the aggregate.
func identityAgg(s *dataflow.Session, l *Log[int64], conf *core.Config) *dataflow.WindowedAggregation[int64, int64, int64] {
	ws := dataflow.WindowBy(dataflow.ReadStream[int64](s, l),
		func(int64) int64 { return 0 },
		dataflow.WindowSpec{Size: conf.Duration(core.StreamingWindowSize, 100*time.Millisecond)},
		dataflow.WatermarkSpec{
			MaxOutOfOrderness: conf.Duration(core.StreamingWatermarkBound, 10*time.Millisecond),
			IdleTimeout:       conf.Duration(core.StreamingIdleTimeout, 200*time.Millisecond),
		})
	return dataflow.AggregateWindow(ws,
		func() int64 { return 0 },
		func(a int64, _ int64) int64 { return a + 1 },
		func(a, b int64) int64 { return a + b })
}

// TestStreamTransformsCompose checks StreamMap/StreamFilter pass offsets,
// event times and ingest stamps through untouched.
func TestStreamTransformsCompose(t *testing.T) {
	fs := testFS()
	l := NewLog[int64](fs, "xform", 1)
	l.SetClock(func() int64 { return 77 })
	for i := int64(0); i < 6; i++ {
		if _, err := l.Append(0, i*10, i); err != nil {
			t.Fatal(err)
		}
	}
	s := testSession(t, "spark", core.NewConfig(), fs)
	st := dataflow.StreamMap(
		dataflow.StreamFilter(dataflow.ReadStream[int64](s, l),
			func(v int64) bool { return v%2 == 0 }),
		func(v int64) int64 { return v * 100 })

	var got []dataflow.StreamRecord[int64]
	var off int64
	for {
		recs, next, err := st.Poll(0, off, 100)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, recs...)
		if next == off {
			break
		}
		off = next
	}
	if len(got) != 3 {
		t.Fatalf("got %d records, want 3", len(got))
	}
	for i, r := range got {
		want := int64(i * 2)
		if r.Value != want*100 || r.Offset != want || r.Time != want*10 || r.Ingest != 77 {
			t.Errorf("record %d = %+v", i, r)
		}
	}
	if off != 6 {
		t.Errorf("resume offset = %d, want 6 (filtered records still advance it)", off)
	}
}
