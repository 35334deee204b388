//go:build linux

package numa

import (
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

const sysNodeDir = "/sys/devices/system/node"

// sysTopology is the Linux topology discovered from sysfs: the online node
// list and each node's cpulist. Built only for real multi-node machines;
// single-node boxes get the singleNode fast path.
type sysTopology struct {
	nodes   []int // online node ids, ascending
	maxNode int   // highest online node id
	cpuNode []int // cpu id -> node id (-1 for cpus listed on no node)

	// rr spreads CurrentNode answers when getcpu is unavailable on this
	// architecture.
	rr atomic.Uint32
}

// Discover returns the machine's topology, parsed from
// /sys/devices/system/node. Any parse failure, and any machine with fewer
// than two online nodes, degrades to the single-node topology — NUMA
// placement is an optimisation, never a requirement.
func Discover() Topology {
	nodes, err := readList(sysNodeDir + "/online")
	if err != nil || len(nodes) < 2 {
		return singleNode{}
	}
	t := &sysTopology{nodes: nodes, maxNode: nodes[len(nodes)-1]}
	for _, n := range nodes {
		cpus, err := readList(sysNodeDir + "/node" + strconv.Itoa(n) + "/cpulist")
		if err != nil {
			return singleNode{}
		}
		for _, c := range cpus {
			for len(t.cpuNode) <= c {
				t.cpuNode = append(t.cpuNode, -1)
			}
			t.cpuNode[c] = n
		}
	}
	return t
}

// readList parses a sysfs list file ("0-3,8-11" style) into sorted ints.
func readList(path string) ([]int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseCPUList(strings.TrimSpace(string(raw)))
}

func (t *sysTopology) NumNodes() int  { return len(t.nodes) }
func (t *sysTopology) Physical() bool { return true }

// CurrentNode asks the kernel which node the current CPU belongs to via
// getcpu; if the syscall is unavailable on this architecture it walks the
// nodes round-robin — spreading set homes over every node (the pre-NUMA
// behaviour of spreading over every shard) instead of piling them all
// onto node 0.
func (t *sysTopology) CurrentNode() int {
	cpu, node := getcpu()
	if node >= 0 && node <= t.maxNode {
		return t.nodeIndex(node)
	}
	if cpu >= 0 && cpu < len(t.cpuNode) && t.cpuNode[cpu] >= 0 {
		return t.nodeIndex(t.cpuNode[cpu])
	}
	return int(t.rr.Add(1)-1) % len(t.nodes)
}

// nodeIndex maps a kernel node id to its dense index in t.nodes (node ids
// can be sparse on partitioned machines).
func (t *sysTopology) nodeIndex(id int) int {
	for i, n := range t.nodes {
		if n == id {
			return i
		}
	}
	return 0
}

// Bind mbinds buf's page range to the node (MPOL_PREFERRED, so the kernel
// may still fall back to another node under memory pressure rather than
// fail the fault).
func (t *sysTopology) Bind(buf []byte, node int) error {
	if err := validateNode(node, len(t.nodes)); err != nil {
		return err
	}
	if len(buf) == 0 {
		return nil
	}
	return mbind(buf, t.nodes[node])
}
