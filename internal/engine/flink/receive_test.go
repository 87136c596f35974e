package flink

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
)

// receiveBatch is the source's batch width in the receive tests: a pushed
// batch (< 1 KiB of lines) is the most a packet can overshoot a network
// buffer by.
const receiveBatch = 16

// receiveEnv is an environment whose exchanges flush 1 KiB network buffers,
// fed by sources that push receiveBatch lines at a time.
func receiveEnv(t *testing.T) *Env {
	return testEnv(t, func(c *core.Config) {
		c.SetBytes(core.BufferSize, 1<<10)
		c.SetInt(core.ExecBatchSize, receiveBatch)
	})
}

// receiveLines writes n distinct lines to the file name and returns them.
func receiveLines(e *Env, name string, n int, payload string) []string {
	var text []byte
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("line %07d: %s", i, payload)
		text = append(append(text, lines[i]...), '\n')
	}
	e.FS().WriteFile(name, text)
	return lines
}

// repartitioned is a string-keyed PartitionCustom of the lines of name over
// two consumer tasks: the exchange in front of TeraSort's sort.
func repartitioned(t *testing.T, e *Env, name string) *DataSet[string] {
	t.Helper()
	ds, err := ReadTextFile(e, name)
	if err != nil {
		t.Fatal(err)
	}
	return PartitionCustom(ds, core.NewHashPartitioner[string](2), func(l string) string { return l })
}

// TestExchangeAllocatesPerConsumerNotPerPacket: a consumer task decodes
// every packet it receives into one batch it reuses and, its records
// holding strings, copies the packet's bytes into an arena whose chunks
// double up to arenaCap. Four times the input over 1 KiB network buffers is
// hundreds of extra packets but only a few extra arena chunks, so the
// allocations an extra packet costs are close to zero (0.00–0.04 measured);
// a decode into a fresh slice and block copy per packet reads 3.3 against
// the lower bound on packets taken here.
func TestExchangeAllocatesPerConsumerNotPerPacket(t *testing.T) {
	const bound = 0.25
	// run counts a job's allocations and received bytes on a warm
	// environment: the second job over the same plan finds the buffer pool
	// filled. A Get the pool still misses — more buffers in flight than in
	// the first job, as the race detector's scheduling makes happen now
	// and then — is one allocation of the pool's, not of the receive side,
	// and is not counted.
	run := func(n int) (allocs int64, read int64) {
		e := receiveEnv(t)
		receiveLines(e, "in", n, "a payload of some forty bytes, give or take")
		ds := repartitioned(t, e, "in")
		if got, err := Count(ds); err != nil || got != int64(n) {
			t.Fatalf("Count = %d, %v; want %d", got, err, n)
		}
		runtime.GC()
		var before, after runtime.MemStats
		readBefore := e.Metrics().ShuffleBytesRead.Load()
		_, _, missesBefore := memory.DefaultPool.Stats()
		runtime.ReadMemStats(&before)
		_, err := Count(ds)
		runtime.ReadMemStats(&after)
		_, _, missesAfter := memory.DefaultPool.Stats()
		if err != nil {
			t.Fatal(err)
		}
		allocs = int64(after.Mallocs-before.Mallocs) - (missesAfter - missesBefore)
		return allocs, e.Metrics().ShuffleBytesRead.Load() - readBefore
	}
	smallAllocs, smallRead := run(5000)
	largeAllocs, largeRead := run(20000)
	// A packet flushes once its buffer holds 1 KiB, so it carries less than
	// that plus one pushed batch: a lower bound on the packets the extra
	// bytes came in.
	packets := float64(largeRead-smallRead) / (2 << 10)
	perPacket := float64(largeAllocs-smallAllocs) / packets
	t.Logf("at least %.0f more packets, %d more allocations: %.3f per packet",
		packets, largeAllocs-smallAllocs, perPacket)
	if packets < 400 {
		t.Fatalf("only %.0f more packets; the test needs the exchange to carry many", packets)
	}
	if perPacket > bound {
		t.Errorf("an extra received packet costs %.2f allocations, want at most %.2f: the receive side allocates per packet", perPacket, bound)
	}
}

// TestReceivedStringsOutliveTheirPackets: strings decoded on the receive
// side are views of the consumer's arena, never of the pooled block the
// packet came in — that block goes back to the pool as soon as it is
// decoded and the next flush overwrites it (under -race the pool fills
// every released buffer with memory.Poison). Records collected from one job
// must read the same after a second job has reused the pool's buffers.
func TestReceivedStringsOutliveTheirPackets(t *testing.T) {
	e := receiveEnv(t)
	want := receiveLines(e, "first", 4000, "from the first job")
	got, err := Collect(repartitioned(t, e, "first"))
	if err != nil {
		t.Fatal(err)
	}
	receiveLines(e, "second", 4000, "FROM THE SECOND JOB")
	if n, err := Count(repartitioned(t, e, "second")); err != nil || n != 4000 {
		t.Fatalf("second job: Count = %d, %v", n, err)
	}
	slices.Sort(got)
	if len(got) != len(want) {
		t.Fatalf("collected %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d reads %q after a second job, want %q: a received string aliases a recycled buffer",
				i, got[i], want[i])
		}
	}
}
