package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/workloads"
)

// Single-threaded reference implementations and the checkers that compare
// every job's output against them. They share no code with the engines.

// refWordCount counts whitespace-separated words with a plain map.
func refWordCount(text []byte) map[string]int64 {
	counts := make(map[string]int64)
	for _, w := range strings.Fields(string(text)) {
		counts[w]++
	}
	return counts
}

// checkWordCount parses the "{word n}" lines the text sink wrote and
// requires exactly the reference's keys and counts.
func checkWordCount(fs *dfs.FS, name string, want map[string]int64) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	seen := 0
	for _, line := range strings.Split(strings.TrimRight(string(f.Contents()), "\n"), "\n") {
		word, num, ok := strings.Cut(strings.Trim(line, "{}"), " ")
		n, perr := strconv.ParseInt(num, 10, 64)
		if !ok || perr != nil {
			return fmt.Errorf("wordcount: malformed output line %q", line)
		}
		if want[word] != n {
			return fmt.Errorf("wordcount: %q counted %d, reference %d", word, n, want[word])
		}
		seen++
	}
	if seen != len(want) {
		return fmt.Errorf("wordcount: %d output keys, reference %d", seen, len(want))
	}
	return nil
}

// refGrep counts the lines containing each pattern.
func refGrep(text []byte, patterns []string) []int64 {
	want := make([]int64, len(patterns))
	pats := make([][]byte, len(patterns))
	for i, p := range patterns {
		pats[i] = []byte(p)
	}
	for rest := text; len(rest) > 0; {
		line := rest
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
			line, rest = rest[:nl], rest[nl+1:]
		} else {
			rest = nil
		}
		for i, pat := range pats {
			if bytes.Contains(line, pat) {
				want[i]++
			}
		}
	}
	return want
}

// checkGrep compares per-pattern counts; each pattern is one job.
func checkGrep(got, want []int64) (failed int, err error) {
	for i := range want {
		if got[i] != want[i] {
			failed++
			err = fmt.Errorf("grep: pattern %d matched %d lines, reference %d", i, got[i], want[i])
		}
	}
	return failed, err
}

// teraChecksum is order-independent: the wrapping sum of every record's
// FNV-1a hash, so a sorted output matches its input iff it holds the same
// multiset of records (TeraValidate's checksum).
func teraChecksum(data []byte) uint64 {
	var sum uint64
	h := fnv.New64a()
	for off := 0; off+datagen.TeraRecordSize <= len(data); off += datagen.TeraRecordSize {
		h.Reset()
		h.Write(data[off : off+datagen.TeraRecordSize])
		sum += h.Sum64()
	}
	return sum
}

// checkTeraSort is TeraValidate: right length, globally sorted keys, and
// the input's record multiset.
func checkTeraSort(fs *dfs.FS, name string, records int, want uint64) error {
	if err := workloads.VerifyTeraSorted(fs, name, records); err != nil {
		return err
	}
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	if got := teraChecksum(f.Contents()); got != want {
		return fmt.Errorf("terasort: output checksum %x, input %x", got, want)
	}
	return nil
}

// refPageRank is the plain-loop PageRank under the engines' Pregel
// deactivation rule: rank 1.0 and active at the start; an active vertex
// sends rank/outDegree along every out-edge; a messaged vertex takes
// 0.15 + 0.85 × Σ and stays active; an unmessaged vertex goes inactive and
// keeps its rank.
func refPageRank(edges []datagen.Edge, supersteps int) map[int64]float64 {
	rank := make(map[int64]float64)
	outDeg := make(map[int64]int64)
	for _, e := range edges {
		rank[e.Src], rank[e.Dst] = 1.0, 1.0
		outDeg[e.Src]++
	}
	active := make(map[int64]bool, len(rank))
	for id := range rank {
		active[id] = true
	}
	for step := 0; step < supersteps; step++ {
		sums := make(map[int64]float64)
		for _, e := range edges {
			if active[e.Src] {
				sums[e.Dst] += rank[e.Src] / float64(outDeg[e.Src])
			}
		}
		if len(sums) == 0 {
			break
		}
		for id := range rank {
			sum, messaged := sums[id]
			if messaged {
				rank[id] = 0.15 + 0.85*sum
			}
			active[id] = messaged
		}
	}
	return rank
}

// rankTolerance absorbs the engines' different float summation orders;
// every engine must sit within it of the one reference, hence of each other.
const rankTolerance = 1e-9

func checkPageRank(got, want map[int64]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("pagerank: %d vertices, reference %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok || math.Abs(g-w) > rankTolerance {
			return fmt.Errorf("pagerank: vertex %d rank %v, reference %v", id, g, w)
		}
	}
	return nil
}
