// Package cluster describes the testbed. A Spec is the static topology
// (the paper's Grid'5000 nodes: 2× Intel Xeon E5-2630 v3 = 16 cores,
// 128 GB RAM, one 558 GB disk, 10 Gbps Ethernet). The same Spec feeds two
// consumers: the real-execution Runtime (goroutine worker pools per node,
// used by both mini-engines at laptop scale) and the DES materialization
// (SimNodes with CPU/disk/NIC resources, used by the paper-scale
// simulator).
package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/disksim"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// Spec describes a homogeneous cluster.
type Spec struct {
	Nodes        int
	CoresPerNode int
	MemPerNode   core.ByteSize
	DiskSeqMiBps float64
	NetMiBps     float64
}

// Grid5000 returns the paper's testbed profile with the given node count.
func Grid5000(nodes int) Spec {
	return Spec{
		Nodes:        nodes,
		CoresPerNode: 16,
		MemPerNode:   128 * core.GB,
		DiskSeqMiBps: disksim.DefaultSeqMiBps,
		NetMiBps:     netsim.DefaultMiBps,
	}
}

// TotalCores returns Nodes × CoresPerNode.
func (s Spec) TotalCores() int { return s.Nodes * s.CoresPerNode }

// Validate rejects degenerate topologies.
func (s Spec) Validate() error {
	if s.Nodes <= 0 || s.CoresPerNode <= 0 {
		return fmt.Errorf("cluster: need positive nodes and cores, got %d×%d", s.Nodes, s.CoresPerNode)
	}
	if s.MemPerNode <= 0 || s.DiskSeqMiBps <= 0 || s.NetMiBps <= 0 {
		return fmt.Errorf("cluster: need positive memory/disk/net capacities")
	}
	return nil
}

// SimNode is the DES materialization of one node.
type SimNode struct {
	ID   int
	CPU  *des.Resource
	Disk *disksim.Device
	NIC  *netsim.NIC

	// Mem tracks the fraction of node memory in use over virtual time —
	// the "Memory %" curves in the paper's figures. The simulator's memory
	// rules append breakpoints as operators acquire and release state.
	Mem      stats.StepSeries
	MemBytes core.ByteSize
	memUsed  float64
	sim      *des.Simulator
}

// Materialize builds one SimNode per node of the spec on the simulator.
func (s Spec) Materialize(sim *des.Simulator) []*SimNode {
	nodes := make([]*SimNode, s.Nodes)
	for i := range nodes {
		nodes[i] = &SimNode{
			ID:       i,
			CPU:      des.NewResource(sim, float64(s.CoresPerNode)),
			Disk:     disksim.New(sim, s.DiskSeqMiBps),
			NIC:      netsim.NewNIC(sim, s.NetMiBps),
			MemBytes: s.MemPerNode,
			sim:      sim,
		}
	}
	return nodes
}

// UseMem adds (or with a negative argument, releases) bytes of resident
// memory and records the new occupancy breakpoint.
func (n *SimNode) UseMem(bytes float64) {
	n.memUsed += bytes
	if n.memUsed < 0 {
		n.memUsed = 0
	}
	n.Mem.Add(n.sim.Now(), n.memUsed/float64(n.MemBytes))
}

// MemUsed returns current resident bytes.
func (n *SimNode) MemUsed() float64 { return n.memUsed }
