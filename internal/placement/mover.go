package placement

import (
	"errors"
	"fmt"
	"sync"

	"pangea/internal/cluster"
	"pangea/internal/services"
)

// maxBatchBytes is the size at which a node's batch ships: the record bytes
// of one AddRecords request. The sweep below predates kept connections, when
// every request dialed a fresh connection and gob re-sent its type
// descriptions; requests now reuse a kept connection, and the sweep has not
// been rerun since. The benchmark's tpch_cluster set-up (SF 0.05, two
// workers; medians of three runs) loads at 66 MB/s and builds its replicas
// in 0.62 s at 16 KiB, 168 MB/s and 0.26 s at 64 KiB, 247 MB/s and 0.20 s at
// 256 KiB, 254 MB/s and 0.21 s at 1 MiB, 212 MB/s and 0.25 s at 4 MiB, where
// a table is too few batches for the sender to overlap them: the curve is
// flat from 256 KiB to 1 MiB.
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

// Sender batches records bound for one target set, one batch per destination
// node, in the wire's own form, and ships a batch once it has reached
// maxBatchBytes — while it fills the next. A node has at most one batch in
// flight, so its batches arrive in order and a sender holds about 2 ×
// maxBatchBytes a node. It is safe for concurrent use, and each node's batch
// has its own lock, so sends to different nodes overlap. A node's first error
// sticks: every later Send to it, and Flush, report it instead of shipping more.
type Sender struct {
	cl    *cluster.Client
	addrs []string
	set   string
	nodes []nodeBatch
}

type nodeBatch struct {
	mu     sync.Mutex
	frames []byte     // the pending records, framed back to back
	spare  []byte     // the other buffer: the batch in flight's, or free
	flying chan error // answers the batch in flight; nil when there is none
	err    error
}

// NewSender returns a sender into set, which must exist on every worker; an
// empty address marks a failed worker, which is sent nothing.
func NewSender(cl *cluster.Client, addrs []string, set string) *Sender {
	return &Sender{cl: cl, addrs: addrs, set: set, nodes: make([]nodeBatch, len(addrs))}
}

// Send frames rec into node's batch: the one copy the sender makes.
func (s *Sender) Send(node int, rec []byte) error {
	b := &s.nodes[node]
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err == nil {
		b.frames = services.AppendFrame(b.frames, rec)
		if len(b.frames) >= maxBatchBytes {
			s.ship(node)
		}
	}
	return b.err
}

// ship waits for the answer to node's batch in flight, if there is one, and
// keeps its error; then it hands the pending batch, if there is one, to a
// goroutine and takes the other buffer to fill. The caller holds the lock.
func (s *Sender) ship(node int) {
	b := &s.nodes[node]
	if b.flying != nil {
		if err := <-b.flying; err != nil {
			b.err = fmt.Errorf("placement: send %s to node %d: %w", s.set, node, err)
		}
		b.flying = nil
	}
	if b.err != nil || len(b.frames) == 0 {
		return
	}
	out, answer := b.frames, make(chan error, 1)
	b.frames, b.spare, b.flying = b.spare[:0], out, answer
	go func() { answer <- s.cl.AddFrames(s.addrs[node], s.set, out) }()
}

// Close flushes the sender and then seals its set on every node that is
// live (a non-empty address): each node's writer closes, its last page
// shrunk to the records on it, so a bulk load leaves no writer page pinned.
// A failed flush is returned without sealing.
func (s *Sender) Close() error {
	if err := s.Flush(); err != nil {
		return err
	}
	for _, addr := range s.addrs {
		if addr == "" {
			continue
		}
		if err := s.cl.SealSet(addr, s.set); err != nil {
			return fmt.Errorf("placement: seal %s on %s: %w", s.set, addr, err)
		}
	}
	return nil
}

// Flush ships every pending batch and returns the failed nodes' errors once
// every batch in flight has been answered. A mover that has failed calls it
// too: when it returns, either way, no AddRecords of its is in flight.
func (s *Sender) Flush() error {
	errs := make([]error, len(s.nodes))
	// Two passes: the first puts every node's last batch in flight, all nodes
	// at once; the second finds nothing pending and only waits for the answers.
	for pass := 0; pass < 2; pass++ {
		for node := range s.nodes {
			b := &s.nodes[node]
			b.mu.Lock()
			s.ship(node)
			errs[node] = b.err
			b.mu.Unlock()
		}
	}
	return errors.Join(errs...)
}
