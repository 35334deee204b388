// Package placement implements Pangea's distributed data placement system
// (paper §7): partition computations that turn one locality set into a
// differently-organized replica, replication groups in which heterogeneous
// replicas do double duty for computational efficiency and failure
// recovery, colliding-object detection, and recovery from node failures
// that re-runs a replica's partitioner over a surviving replica.
package placement

import "pangea/internal/cluster"

// KeyFunc extracts the partitioning key from a record — the paper's
// PartitionComp UDF (getKeyUdf).
type KeyFunc func(rec []byte) []byte

// Partitioner is one physical organization: a named partition computation
// mapping records to partitions, and partitions to worker nodes.
type Partitioner struct {
	// Scheme names the organization in the statistics database, e.g.
	// "hash(l_orderkey)".
	Scheme string
	// NumPartitions is the partition count; it should be >= the node count.
	NumPartitions int
	// Key extracts the partition key.
	Key KeyFunc
}

// fnv1a hashes a byte string (FNV-1a 64).
func fnv1a(b []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// PartitionOf maps a record to its partition index.
func (p *Partitioner) PartitionOf(rec []byte) int {
	return int(fnv1a(p.Key(rec)) % uint64(p.NumPartitions))
}

// NodeOf maps a record to the node holding its partition in a k-node
// cluster: partitions are dealt to the nodes round-robin.
func (p *Partitioner) NodeOf(rec []byte, k int) int {
	return p.PartitionOf(rec) % k
}

// RandomNode is the placement of a randomly dispatched source set: a
// content hash spreads records uniformly over the k nodes, deterministically
// so that tests and recovery can re-derive it.
func RandomNode(rec []byte, k int) int {
	// Salted so random dispatch decorrelates from hash partitioners that
	// hash the whole record.
	return int((fnv1a(rec) ^ 0x9e3779b97f4a7c15) % uint64(k))
}

// PartitionsFor is the partition count every organization of a k-node
// deployment uses. Two sets co-partition node by node — a replica with a
// replica, an exchanged set with a replica — only if they agree on it.
func PartitionsFor(k int) int { return 4 * k }

// DispatchRandom loads records into a source set spread over the cluster by
// content hash — the "randomly dispatched set" of §9.1.2 — and seals it on
// every worker. The set must already exist on every worker.
func DispatchRandom(cl *cluster.Client, addrs []string, set string, records [][]byte) error {
	s := NewSender(cl, addrs, set)
	for _, rec := range records {
		if s.Send(RandomNode(rec, len(addrs)), rec) != nil {
			break // Close reports it, once the batches in flight have been answered
		}
	}
	return s.Close()
}
