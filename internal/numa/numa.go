// Package numa models the machine's NUMA topology for the buffer pool's
// memory substrate. The paper's unified pool assumes page memory is equally
// cheap to touch from any worker, but on multi-socket hardware a page whose
// arena region lives on a remote node serves every pin at remote-DRAM
// latency. The sharded allocator therefore partitions its shards across
// nodes and binds each shard's arena region to its node; this package is
// the discovery and binding layer behind that placement, with an injectable
// FakeTopology so every cross-node code path is testable on a single-node
// laptop or CI runner.
package numa

import "fmt"

// Topology is the NUMA shape the allocator programs against. Real
// implementations come from OS discovery (sysfs on Linux, a single-node
// fallback elsewhere); tests inject a FakeTopology.
type Topology interface {
	// NumNodes reports how many NUMA nodes the machine has (always >= 1).
	NumNodes() int
	// CurrentNode reports the node whose CPU the calling goroutine is
	// executing on right now. Go can migrate the goroutine the instant the
	// call returns, so this is a placement hint, never a guarantee.
	CurrentNode() int
	// Bind advises the OS to place the physical pages backing buf on the
	// given node. Best-effort: errors mean the memory stays wherever the
	// first touch puts it. Synthetic topologies record the call instead.
	Bind(buf []byte, node int) error
	// Physical reports whether this topology describes the real machine
	// (so mmap-backed arenas and mbind make sense) rather than a synthetic
	// or test shape over ordinary heap memory.
	Physical() bool
}

// singleNode is the degenerate topology: one node, everything local. It is
// the fallback for non-Linux builds, single-socket machines, and any
// discovery failure, and preserves the pre-NUMA allocator behaviour bit for
// bit (one node tier, no binding, no cross-node steals).
type singleNode struct{}

// SingleNode returns the one-node topology explicitly.
func SingleNode() Topology { return singleNode{} }

func (singleNode) NumNodes() int                   { return 1 }
func (singleNode) CurrentNode() int                { return 0 }
func (singleNode) Bind(buf []byte, node int) error { return nil }
func (singleNode) Physical() bool                  { return true }

// validateNode is shared bounds checking for Bind implementations.
func validateNode(node, numNodes int) error {
	if node < 0 || node >= numNodes {
		return fmt.Errorf("numa: node %d out of range [0,%d)", node, numNodes)
	}
	return nil
}
