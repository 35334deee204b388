package placement

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

// TestCoPartitioningProperty is the invariant the Fig 5 speedups rest on:
// two tables partitioned with the same scheme (same partition count, key
// hashing) place records with equal join keys on the same node, for any key
// and any cluster size — so the join needs no repartition.
func TestCoPartitioningProperty(t *testing.T) {
	f := func(key uint64, kRaw uint8) bool {
		k := 2 + int(kRaw%29) // 2..30 nodes
		np := k * 4
		// Table A stores the key at offset 0, table B at offset 8, like
		// lineitem.l_orderkey vs orders.o_orderkey.
		pa := &Partitioner{Scheme: "s", NumPartitions: np, Key: func(r []byte) []byte { return r[0:8] }}
		pb := &Partitioner{Scheme: "s", NumPartitions: np, Key: func(r []byte) []byte { return r[8:16] }}
		recA := make([]byte, 16)
		recB := make([]byte, 24)
		binary.LittleEndian.PutUint64(recA[0:8], key)
		binary.LittleEndian.PutUint64(recB[8:16], key)
		return pa.NodeOf(recA, k) == pb.NodeOf(recB, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPartitionOfStableAcrossCalls: partitioning is a pure function of the
// key — the property recovery relies on to re-derive lost placements.
func TestPartitionOfStableAcrossCalls(t *testing.T) {
	p := &Partitioner{Scheme: "s", NumPartitions: 64, Key: func(r []byte) []byte { return r }}
	f := func(key []byte) bool {
		a, b := p.PartitionOf(key), p.PartitionOf(key)
		return a == b && a >= 0 && a < 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
