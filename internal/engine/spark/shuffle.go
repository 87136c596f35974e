package spark

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/shuffle"
)

// errFetchFailed marks a reducer that could not find a map output — the
// scheduler reacts by re-running the producing map stage, Spark's
// FetchFailed → stage resubmission path.
var errFetchFailed = errors.New("spark: shuffle fetch failed: missing map output")

// shuffleDep is a wide dependency: the parent's partitions are written as
// partitioned map outputs that the child reads by reduce partition.
type shuffleDep struct {
	id       int
	numMaps  int
	numParts int
	parent   anyRDD
	write    func(mapPart int, tc *taskContext) error
}

// mapOutput is one map task's contribution: one block per reduce partition,
// tagged with the node that produced it so reads can be classified local or
// remote. Map outputs outlive the producing stage for lineage-based retries,
// so the service keeps them in storage allocated for them (shuffle.KeepAll):
// one exact-size array per map task, never from the buffer pool, written
// once. The writers' pooled buffers go back to the pool at Close, and a
// reader may decode the kept bytes in place — the decoded strings are views
// of them and keep them alive after dropNode forgets them.
type mapOutput struct {
	node    int
	buckets []shuffle.Block
}

// shuffleService stores map outputs between stages — Spark's shuffle files
// (kept in memory here; the bytes are real serialized records).
type shuffleService struct {
	mu      sync.Mutex
	ctx     *Context
	outputs map[int][]*mapOutput
}

func newShuffleService(ctx *Context) *shuffleService {
	return &shuffleService{ctx: ctx, outputs: make(map[int][]*mapOutput)}
}

// register prepares slots for a shuffle's map outputs.
func (s *shuffleService) register(sd *shuffleDep) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.outputs[sd.id]; !ok {
		s.outputs[sd.id] = make([]*mapOutput, sd.numMaps)
	}
}

// put stores one map task's buckets, taking ownership of their storage.
// raw is the pre-compression serialized volume; the wire bytes also count
// as disk writes (shuffle files hit local disk) under the shared accounting
// rule in internal/metrics.
func (s *shuffleService) put(shuffleID, mapPart, node int, buckets []shuffle.Block, raw int64) {
	var written int64
	for _, b := range buckets {
		written += int64(b.Len())
	}
	s.mu.Lock()
	s.outputs[shuffleID][mapPart] = &mapOutput{node: node, buckets: buckets}
	s.mu.Unlock()
	s.ctx.metrics.AddShuffleWrite(written, raw, true)
}

// missingMaps lists map partitions whose output is absent.
func (s *shuffleService) missingMaps(shuffleID, numMaps int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	outs, ok := s.outputs[shuffleID]
	if !ok {
		all := make([]int, numMaps)
		for i := range all {
			all[i] = i
		}
		return all
	}
	var missing []int
	for i, o := range outs {
		if o == nil {
			missing = append(missing, i)
		}
	}
	return missing
}

// fetch returns one reduce partition's blocks, one per map task, in map
// order. A block produced on the reader's own node is BORROWED — a
// zero-copy view of the service's storage; a block from any other node is
// COPIED once into bytes the reader owns, modeling the network transfer a
// real remote fetch performs. Bytes are accounted local or remote
// accordingly. Neither kind is pooled, so shuffle.DecodeBlocks decodes both
// in place and releasing them after the decode only drops the reference.
func (s *shuffleService) fetch(shuffleID, reducePart int, tc *taskContext) ([]shuffle.Block, error) {
	s.mu.Lock()
	outs, ok := s.outputs[shuffleID]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: shuffle %d never ran", errFetchFailed, shuffleID)
	}
	blocks := make([]shuffle.Block, 0, len(outs))
	var local, remote int64
	for _, o := range outs {
		if o == nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: shuffle %d", errFetchFailed, shuffleID)
		}
		b := o.buckets[reducePart]
		if o.node == tc.node {
			blocks = append(blocks, b.Borrow())
			local += int64(b.Len())
		} else {
			blocks = append(blocks, b.Copy())
			remote += int64(b.Len())
		}
	}
	s.mu.Unlock()
	tc.metrics.AddShuffleRead(local, true)
	tc.metrics.AddShuffleRead(remote, false)
	return blocks, nil
}

// dropNode discards outputs produced by a failed node; subsequent fetches
// fail and trigger map-stage re-execution from lineage.
func (s *shuffleService) dropNode(node int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, outs := range s.outputs {
		for i, o := range outs {
			if o != nil && o.node == node {
				outs[i] = nil
			}
		}
	}
}
