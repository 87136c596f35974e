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

// mapOutput is one map task's contribution: one sealed block per reduce
// partition, tagged with the node that produced it so reads can be
// classified local or remote. The service owns the blocks' storage — map
// outputs outlive the producing stage for lineage-based retries, so they
// are never released back to the pool while registered.
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

// complete reports whether every map output is present.
func (s *shuffleService) complete(shuffleID, numMaps int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	outs, ok := s.outputs[shuffleID]
	if !ok || len(outs) != numMaps {
		return false
	}
	for _, o := range outs {
		if o == nil {
			return false
		}
	}
	return true
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
// COPIED into a fresh pooled buffer, modeling the network transfer a real
// remote fetch performs. Bytes are accounted local or remote accordingly;
// the caller releases every returned block after decoding (borrows no-op,
// remote copies recycle).
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
			blocks = append(blocks, b.CopyPooled())
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

// invalidate forgets a whole shuffle (tests use it to force re-runs).
func (s *shuffleService) invalidate(shuffleID int) {
	s.mu.Lock()
	delete(s.outputs, shuffleID)
	s.mu.Unlock()
}
