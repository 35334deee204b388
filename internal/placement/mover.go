package placement

import (
	"errors"
	"fmt"
	"sync"

	"pangea/internal/cluster"
)

// maxBatchBytes bounds the record bytes of one AddRecords request. A request
// dials a fresh connection and gob re-sends its type description, so the cost
// is per request, not per byte. The benchmark's tpch_cluster set-up (SF 0.05,
// two workers) loads at 58 MB/s and builds its replicas in 0.93 s at 16 KiB
// (what 256 TPC-H records come to), 92 MB/s and 0.55 s at 64 KiB, 124 MB/s
// and 0.42 s at 256 KiB, 129 MB/s and 0.37 s at 1 MiB, 112 MB/s and 0.41 s at
// 4 MiB: the curve is flat from 1 MiB. A sender holds at most one batch a node.
const maxBatchBytes = 1 << 20

// Stream feeds fn every record of set, one worker after another, with the
// index of the worker it came from. An empty entry of addrs marks a failed
// worker and is skipped. rec is only valid during the call. Stream and Sender
// are the two ends of every cross-node record movement, and so the seam where
// worker-to-worker page shipping can replace records relayed by the client.
func Stream(cl *cluster.Client, addrs []string, set string, fn func(node int, rec []byte) error) error {
	for node, addr := range addrs {
		if addr == "" {
			continue
		}
		if err := cl.FetchSet(addr, set, func(rec []byte) error { return fn(node, rec) }); err != nil {
			return fmt.Errorf("placement: stream %s from %s: %w", set, addr, err)
		}
	}
	return nil
}

// CountSet totals a set's records over the given workers.
func CountSet(cl *cluster.Client, addrs []string, set string) (int64, error) {
	var n int64
	err := Stream(cl, addrs, set, func(int, []byte) error { n++; return nil })
	return n, err
}

// Sender batches records bound for one target set, one batch per
// destination node, and ships a batch with AddRecords when the next record
// would take it past maxBatchBytes. It is safe for concurrent use, and each
// node's batch has its own lock, so sends to different nodes overlap. A
// node's first error sticks: every later Send to it, and Flush, report it
// instead of shipping more.
type Sender struct {
	cl    *cluster.Client
	addrs []string
	set   string
	nodes []nodeBatch
}

type nodeBatch struct {
	mu    sync.Mutex
	bytes []byte   // the pending records, copied back to back
	recs  [][]byte // the same records as slices of bytes
	err   error
}

// NewSender returns a sender into set, which must exist on every worker.
func NewSender(cl *cluster.Client, addrs []string, set string) *Sender {
	return &Sender{cl: cl, addrs: addrs, set: set, nodes: make([]nodeBatch, len(addrs))}
}

// Send copies rec into node's batch.
func (s *Sender) Send(node int, rec []byte) error {
	b := &s.nodes[node]
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.bytes)+len(rec) > maxBatchBytes {
		s.ship(node)
	}
	if b.err != nil {
		return b.err
	}
	off := len(b.bytes)
	b.bytes = append(b.bytes, rec...)
	b.recs = append(b.recs, b.bytes[off:])
	return nil
}

// ship sends node's pending batch; the caller holds the batch's lock.
// AddRecords has encoded the batch when it returns, so the buffers are reused.
func (s *Sender) ship(node int) {
	b := &s.nodes[node]
	if b.err == nil && len(b.recs) > 0 {
		if err := s.cl.AddRecords(s.addrs[node], s.set, b.recs); err != nil {
			b.err = fmt.Errorf("placement: send %s to node %d: %w", s.set, node, err)
		}
	}
	b.bytes, b.recs = b.bytes[:0], b.recs[:0]
}

// Flush ships every pending batch, all nodes at once, and returns the failed
// nodes' errors.
func (s *Sender) Flush() error {
	var wg sync.WaitGroup
	errs := make([]error, len(s.nodes))
	for node := range s.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := &s.nodes[node]
			b.mu.Lock()
			defer b.mu.Unlock()
			s.ship(node)
			errs[node] = b.err
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
