// Package locking provides the ranked mutexes that encode Pangea's global
// lock order. Every long-lived mutex in the system belongs to a named class
// with a numeric rank; a goroutine may only acquire a lock whose rank is
// strictly greater than every ranked lock it already holds. The table below
// is the single source of truth: the static lockorder analyzer in
// internal/lint checks acquisition sites against it at build time, and the
// `pangea_checks` build tag swaps in instrumented wrappers that track
// per-goroutine held-lock sets at run time and panic on any inversion.
//
// The order, lowest rank (acquired first) to highest (acquired last):
//
//	rank 10  cluster.Worker.mu        worker set registry
//	rank 15  cluster.setWriter.mu     per-set sequential writer
//	rank 20  core.BufferPool.regMu    pool set registry
//	rank 30  core.LocalitySet.mu      per-set page table + residency state
//	rank 40  services.sideIndex.mu    per-set side index (zone map, microindex)
//	rank 60  memory.shard.mu          allocator shard heap
//	rank 70  pfs.PagedFile.mu         paged-file extent index
//	rank 80  disk.Queue.mu            per-drive I/O queue
//	rank 90  disk.Disk.mu             drive time model
//
// Rank 0 (RankNone) marks a mutex that opted out of checking; it is never
// tracked. Acquiring a lock of rank equal to one already held is also a
// violation: classes at one rank are leaves with respect to each other
// (e.g. code must never hold two LocalitySet mutexes at once — the pool
// iterates sets strictly one at a time).
package locking

import "fmt"

// Rank is a position in the global lock order. Higher ranks must be
// acquired after lower ranks on any single goroutine.
type Rank int32

const (
	// RankNone disables order checking for a mutex.
	RankNone Rank = 0
	// RankWorker orders cluster.Worker.mu (worker set registry).
	RankWorker Rank = 10
	// RankSetWriter orders cluster.setWriter.mu (per-set seq writer).
	RankSetWriter Rank = 15
	// RankRegistry orders core.BufferPool.regMu (pool set registry).
	RankRegistry Rank = 20
	// RankSet orders core.LocalitySet.mu (per-set page table).
	RankSet Rank = 30
	// RankSideIndex orders services.sideIndex.mu, the one lock every
	// side-index kind (zone map, microindex) embeds. Kinds are leaves with
	// respect to each other: a scan consults them one after the other,
	// never one while holding another's lock.
	RankSideIndex Rank = 40
	// RankAllocTLSF orders memory.shard.mu (allocator shard heap).
	RankAllocTLSF Rank = 60
	// RankPFS orders pfs.PagedFile.mu (extent index).
	RankPFS Rank = 70
	// RankIOQueue orders disk.Queue.mu (per-drive I/O queue).
	RankIOQueue Rank = 80
	// RankDisk orders disk.Disk.mu (drive time model).
	RankDisk Rank = 90
)

// rankNames maps each rank to the lock class it orders, for diagnostics.
var rankNames = map[Rank]string{
	RankNone:      "unranked",
	RankWorker:    "cluster.Worker.mu",
	RankSetWriter: "cluster.setWriter.mu",
	RankRegistry:  "core.BufferPool.regMu",
	RankSet:       "core.LocalitySet.mu",
	RankSideIndex: "services.sideIndex.mu",
	RankAllocTLSF: "memory.shard.mu",
	RankPFS:       "pfs.PagedFile.mu",
	RankIOQueue:   "disk.Queue.mu",
	RankDisk:      "disk.Disk.mu",
}

// String names the lock class a rank orders.
func (r Rank) String() string {
	if n, ok := rankNames[r]; ok {
		return fmt.Sprintf("%s(rank %d)", n, int32(r))
	}
	return fmt.Sprintf("rank %d", int32(r))
}
