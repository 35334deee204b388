// Package cluster implements Pangea's distributed layer (paper §3.3, §5):
// a light-weight manager node that accepts applications, maintains the
// locality set catalog and the statistics database; worker nodes that run
// the storage process (buffer pool + file system + services); and the data
// proxy through which co-located computation processes coordinate page
// access with the storage process over sockets while touching page bytes
// through shared memory (Fig 2).
//
// All wire messages are gob-encoded over TCP, standing in for the paper's
// hand-rolled message protocols on top of TCP/IP. This file declares the
// messages; rpc.go carries them.
package cluster

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/gob"
	"fmt"

	"pangea/internal/core"
)

// Messages. A message says only what is particular to it: the cluster key
// and a failure travel in the envelopes (rpc.go), and a reply with nothing to
// say is an envelope with no message.

// RegisterWorkerReq announces a worker to the manager.
type RegisterWorkerReq struct {
	Addr string // the worker's listen address
}

// RegisterWorkerResp acknowledges registration with the worker's index.
type RegisterWorkerResp struct {
	ID int
}

// ListWorkersReq asks the manager for the live worker addresses.
type ListWorkersReq struct{}

// ListWorkersResp lists worker addresses in registration order.
type ListWorkersResp struct {
	Addrs []string
}

// CreateSetReq creates a locality set on one worker from the whole spec.
type CreateSetReq struct {
	Spec core.SetSpec
}

// AddRecordsReq appends a batch of records to a set through the worker's
// sequential write service. Records cross the wire, in both directions, as one
// run of frames (services.AppendFrame): one byte slice a message for gob.
type AddRecordsReq struct {
	Set    string
	Frames []byte
}

// FetchSetReq streams every record of a set back to the caller, a page at a
// time. Used by partitioning, replica builds, recovery and CountSet, which
// must cross node boundaries.
type FetchSetReq struct {
	Set string
}

// RecordBatch is one page's records of the stream; Last marks its end.
type RecordBatch struct {
	Frames []byte
	Last   bool
}

// GetSetPagesReq starts the Fig 2 scan flow: the storage process pins the
// set's pages and streams their metadata; the proxy feeds a circular buffer.
type GetSetPagesReq struct {
	Set string
}

// PageMeta is the metadata of one pinned page, shipped over the socket. The
// page's bytes are NOT copied: computation threads slice the shared arena
// at Offset.
type PageMeta struct {
	PageNum int64
	Offset  int64
	Size    int64
	// NoMorePage marks the end of the scan stream.
	NoMorePage bool
}

// PageDone tells the storage process a computation thread has finished one
// page, so it can be unpinned.
type PageDone struct {
	PageNum int64
}

// PinPageReq asks the storage process to pin a fresh page of a set for
// writing (the PinPage message of §5); the reply is the page's PageMeta.
type PinPageReq struct {
	Set string
}

// UnpinPageReq releases a page pinned via PinPageReq.
type UnpinPageReq struct {
	Set     string
	PageNum int64
	Dirty   bool
}

// SealSetReq closes a set's sequential writer on one worker: its open page
// is sealed — compacted to its records and shrunk to them — and unpinned.
// Bulk loads send it to every worker once their last batch is in.
type SealSetReq struct {
	Set string
}

// DropSetReq removes a set from one worker.
type DropSetReq struct {
	Set string
}

// SetStatsReq asks a worker for one set's Stats (core.LocalitySet.Snapshot).
type SetStatsReq struct {
	Set string
}

// NodeStatsReq asks a worker for its pool's Stats (core.BufferPool.Snapshot).
type NodeStatsReq struct{}

// Stats is a worker's reply to SetStatsReq and NodeStatsReq: every counter
// and gauge of the snapshot it asked for, by name, as the worker's core
// reported it.
type Stats map[string]int64

// RegisterReplicaReq records replica metadata in the manager's statistics
// database (§7): target set is a replica of source set under scheme.
type RegisterReplicaReq struct {
	Source string
	Target string
	Scheme string // partitioner name, e.g. "hash(l_orderkey)"
}

// GetReplicasReq queries the statistics database for a set's replica group.
type GetReplicasReq struct {
	Source string
}

// ReplicaInfo describes one registered replica.
type ReplicaInfo struct {
	Set    string
	Scheme string
}

// GetReplicasResp lists the replica group of a set, including the source
// itself.
type GetReplicasResp struct {
	Replicas []ReplicaInfo
}

// ShutdownReq asks a node to stop serving.
type ShutdownReq struct{}

func init() {
	gob.Register(RegisterWorkerReq{})
	gob.Register(RegisterWorkerResp{})
	gob.Register(ListWorkersReq{})
	gob.Register(ListWorkersResp{})
	gob.Register(CreateSetReq{})
	gob.Register(AddRecordsReq{})
	gob.Register(FetchSetReq{})
	gob.Register(RecordBatch{})
	gob.Register(GetSetPagesReq{})
	gob.Register(PageMeta{})
	gob.Register(PageDone{})
	gob.Register(PinPageReq{})
	gob.Register(UnpinPageReq{})
	gob.Register(SealSetReq{})
	gob.Register(DropSetReq{})
	gob.Register(SetStatsReq{})
	gob.Register(NodeStatsReq{})
	gob.Register(Stats{})
	gob.Register(RegisterReplicaReq{})
	gob.Register(GetReplicasReq{})
	gob.Register(GetReplicasResp{})
	gob.Register(ShutdownReq{})
}

// AuthToken derives the wire token from the cluster's private key. A
// deployment shares one key pair; the HMAC keeps the raw key off the wire.
func AuthToken(privateKey string) string {
	m := hmac.New(sha256.New, []byte(privateKey))
	m.Write([]byte("pangea-cluster-v1"))
	return fmt.Sprintf("%x", m.Sum(nil))
}
