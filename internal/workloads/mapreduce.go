package workloads

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine/mapreduce"
)

// This file adapts the paper's batch workloads to the third, MapReduce
// engine, with the classic Hadoop job shapes:
//
//	Word Count  map(tokenize)→combine(sum)→reduce(sum)
//	Grep        map(match→("match",1))→combine(sum)→reduce(sum)
//	Tera Sort   map(key,rest)→rangePartition→identityReduce (sort-merge sorts)
//	K-Means     one full job per iteration, centers round-tripped via DFS
//
// Contrast unified.go: same logical workloads, but no caching, no
// pipelining and no native iterations — the baseline the in-memory engines
// improve on. These native-API variants are kept (non-deprecated) as the
// reference implementations the unified definitions are tested against;
// they also pin the classic Hadoop output formats.

// sumInt64 is the shared Word Count / Grep combiner and reducer body.
func sumInt64(vs []int64) int64 {
	var s int64
	for _, v := range vs {
		s += v
	}
	return s
}

// WordCountMapReduce runs the classic Hadoop Word Count: tokenize in map,
// sum in combiner and reducer, text output on the DFS ("word\tcount"
// lines, unlike the unified sink's fmt lines — tests pin this format). It
// is the native-API reference implementation the unified WordCount is
// checked against.
func WordCountMapReduce(c *mapreduce.Cluster, input, output string) error {
	in, err := mapreduce.TextInput(c, input)
	if err != nil {
		return err
	}
	job := mapreduce.Job[string, string, int64]{
		Name: "WordCount",
		Map: func(line string, emit func(string, int64)) {
			// Map tasks run concurrently, so the scratch is per call: an
			// array on the stack, outgrown only by a line of over 16 words.
			var buf [16]string
			for _, w := range appendFields(buf[:0], line) {
				emit(w, 1)
			}
		},
		Combine: func(_ string, vs []int64) int64 { return sumInt64(vs) },
		Reduce: func(k string, vs []int64, emit func(string, int64)) {
			emit(k, sumInt64(vs))
		},
	}
	out, err := mapreduce.Run(c, job, in)
	if err != nil {
		return err
	}
	out.WriteText(c, output)
	return nil
}

// GrepMapReduce counts matching lines: map emits ("match", 1) per hit and a
// single-reduce job sums them (the distributed-grep example from the
// original MapReduce paper). Native-API reference for the unified Grep.
func GrepMapReduce(c *mapreduce.Cluster, input, pattern string) (int64, error) {
	in, err := mapreduce.TextInput(c, input)
	if err != nil {
		return 0, err
	}
	job := mapreduce.Job[string, string, int64]{
		Name:    "Grep",
		Reduces: 1,
		Map: func(line string, emit func(string, int64)) {
			if strings.Contains(line, pattern) {
				emit("match", 1)
			}
		},
		Combine: func(_ string, vs []int64) int64 { return sumInt64(vs) },
		Reduce: func(k string, vs []int64, emit func(string, int64)) {
			emit(k, sumInt64(vs))
		},
	}
	out, err := mapreduce.Run(c, job, in)
	if err != nil {
		return 0, err
	}
	for _, kv := range out.Pairs() {
		if kv.Key == "match" {
			return kv.Value, nil
		}
	}
	return 0, nil
}

// TeraSortMapReduce sorts TeraGen records the way the original Hadoop
// TeraSort does: map splits each record into (key, rest), the shared range
// partitioner routes key ranges to reduces, and the engine's sort-merge
// with an identity reducer yields the global order. Native-API reference
// for the unified TeraSort.
func TeraSortMapReduce(c *mapreduce.Cluster, input, output string, part *core.RangePartitioner[string]) error {
	in, err := mapreduce.FixedRecordInput(c, input, datagen.TeraRecordSize)
	if err != nil {
		return err
	}
	job := mapreduce.Job[[]byte, string, string]{
		Name:    "TeraSort",
		Reduces: part.NumPartitions(),
		Map: func(r []byte, emit func(string, string)) {
			kv := teraPair(r)
			emit(kv.Key, kv.Value)
		},
		Partition: func(k string, _ int) int { return part.Partition(k) },
	}
	out, err := mapreduce.Run(c, job, in)
	if err != nil {
		return err
	}
	var sb strings.Builder
	for _, p := range out.Partitions {
		for _, kv := range p {
			sb.WriteString(kv.Key)
			sb.WriteString(kv.Value)
		}
	}
	c.FS().WriteFile(output, []byte(sb.String()))
	c.Metrics().DiskBytesWritten.Add(int64(sb.Len()))
	return nil
}

// kmPointsFile / kmCentersFile are the DFS names K-Means chains through.
const (
	kmPointsFile  = "kmeans-points"
	kmCentersFile = "kmeans-centers"
)

// WritePointsFile stores points as "x y" text lines, the job input every
// K-Means iteration re-reads.
func WritePointsFile(c *mapreduce.Cluster, name string, points []datagen.Point) {
	var sb strings.Builder
	for _, p := range points {
		sb.WriteString(strconv.FormatFloat(p.X, 'g', -1, 64))
		sb.WriteByte(' ')
		sb.WriteString(strconv.FormatFloat(p.Y, 'g', -1, 64))
		sb.WriteByte('\n')
	}
	c.FS().WriteFile(name, []byte(sb.String()))
	c.Metrics().DiskBytesWritten.Add(int64(sb.Len()))
}

func parsePointLine(line string) (datagen.Point, bool) {
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return datagen.Point{}, false
	}
	x, err1 := strconv.ParseFloat(line[:sp], 64)
	y, err2 := strconv.ParseFloat(line[sp+1:], 64)
	if err1 != nil || err2 != nil {
		return datagen.Point{}, false
	}
	return datagen.Point{X: x, Y: y}, true
}

// KMeansMapReduce clusters points with MapReduce's only iteration
// mechanism: a chain of independent jobs. Every iteration re-reads the full
// point set from the DFS, reloads the centers file (the distributed-cache
// step), and writes the new centers back — the repeated I/O that Spark's
// caching and Flink's native iterations eliminate. Tests pin the text
// round-trip files ("kmeans-points"/"kmeans-centers"). Native-API
// reference for the unified KMeans on a mapreduce session.
func KMeansMapReduce(c *mapreduce.Cluster, points []datagen.Point, k, iters int) ([]datagen.Point, error) {
	if k <= 0 {
		return nil, fmt.Errorf("workloads: kmeans needs k > 0")
	}
	WritePointsFile(c, kmPointsFile, points)
	centers := datagen.InitialCenters(points, k)
	err := mapreduce.Iterate(c, iters, func(round int) error {
		// Centers round-trip through the DFS between jobs.
		WritePointsFile(c, kmCentersFile, centers)
		cf, err := c.FS().Open(kmCentersFile)
		if err != nil {
			return err
		}
		var cts []datagen.Point
		for _, split := range cf.LineSplits() {
			for _, line := range split {
				if p, ok := parsePointLine(line); ok {
					cts = append(cts, p)
				}
			}
		}
		c.Metrics().DiskBytesRead.Add(cf.Size())

		in, err := mapreduce.TextInput(c, kmPointsFile)
		if err != nil {
			return err
		}
		job := mapreduce.Job[string, int, KSum]{
			Name:    fmt.Sprintf("KMeans#%d", round+1),
			Reduces: k,
			Map: func(line string, emit func(int, KSum)) {
				p, ok := parsePointLine(line)
				if !ok {
					return
				}
				emit(nearest(p, cts), KSum{X: p.X, Y: p.Y, N: 1})
			},
			Combine: func(_ int, vs []KSum) KSum {
				acc := KSum{}
				for _, v := range vs {
					acc = addKSum(acc, v)
				}
				return acc
			},
			Reduce: func(i int, vs []KSum, emit func(int, KSum)) {
				acc := KSum{}
				for _, v := range vs {
					acc = addKSum(acc, v)
				}
				emit(i, acc)
			},
		}
		out, err := mapreduce.Run(c, job, in)
		if err != nil {
			return err
		}
		sums := make(map[int]KSum)
		for _, kv := range out.Pairs() {
			sums[kv.Key] = kv.Value
		}
		centers = updateCenters(centers, sums)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return centers, nil
}
