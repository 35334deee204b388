package core

import (
	"fmt"

	"pangea/internal/disk"
)

// driveQueueDepth bounds how many jobs may be pending on one drive's queue.
// A full queue blocks its submitter — the eviction daemon's submission loop,
// or the goroutine hinting a read-ahead window, which issues at most a
// window's worth of pages — so neither eviction nor speculation can buffer
// unbounded pages ahead of what the drives drain.
const driveQueueDepth = 32

// driveQueues is one bounded disk.Queue — and its lazy worker goroutines —
// per drive, indexed like the Array. The paged file layer places pages
// round-robin across the array precisely so that N drives deliver ~N×
// bandwidth (paper §4); writing victims serially from the daemon forfeited
// that, stalling every blocked allocator behind single-drive spill I/O. A
// drive's queue keeps two jobs at the drive (disk.Queue), so one's
// completion work overlaps the other's device time and two jobs on one
// drive may finish in either order; jobs on different drives run
// concurrently. The pool keeps one set for victim write-backs and one for
// page loads, so a burst of speculative reads never queues behind
// write-backs (and vice versa); on one drive, reads and writes still share
// the drive's time model, as they would the device.
type driveQueues []*disk.Queue

func newDriveQueues(arr *disk.Array) driveQueues {
	qs := make(driveQueues, arr.Len())
	for i := range qs {
		qs[i] = disk.NewQueue(driveQueueDepth)
	}
	return qs
}

// submitSpill queues the write-back of p, a dirty victim of set s held under
// an eviction claim (so its bytes cannot be touched mid-flight), on its
// drive's writer and returns; it blocks only while that drive's queue is full. The
// write's completion alone ends the claim: it frees the frame — or, if the
// write failed, keeps the page resident and dirty — and tells the daemon's
// waiters the outcome. A landed write re-kicks the daemon, since demand may
// still exceed what is free or in flight; a failed one only reports, as a
// failed round always did, and the waiters' own retries ask for the next
// round.
func (bp *BufferPool) submitSpill(s *LocalitySet, p *Page) {
	e := bp.evictor
	// Placement is the only step that needs the file's index lock. It fails
	// only when the drive's data file cannot be created: the page stays
	// resident and dirty, as after a failed write.
	loc, err := s.file.PlacePage(p.num)
	if err != nil {
		bp.settle(s, p, err)
		e.broadcast(fmt.Errorf("core: spill during eviction: %w", err))
		return
	}
	bp.stats.SpillsInFlight.Add(1)
	e.inFlight.Add(p.size)
	bp.spills[loc.Drive].Submit(func() {
		err := s.file.WritePageAt(loc, p.num, p.Bytes())
		if err == nil {
			bp.stats.Spills.Add(1)
			// Attribute the write-back to the owning set: the fairness
			// experiment reads this gauge to show which tenant's churn
			// absorbs the eviction I/O. Failed writes count nowhere — the
			// page stays resident and dirty, so a later retry that lands
			// will be the one counted.
			s.stats.SpillWrites.Add(1)
		}
		bp.settle(s, p, err)
		// The frame is free (or known not to become free) before it stops
		// counting as free soon, so the daemon never sees it missing.
		e.inFlight.Add(-p.size)
		bp.stats.SpillsInFlight.Add(-1)
		if err != nil {
			e.broadcast(fmt.Errorf("core: spill during eviction: %w", err))
			return
		}
		e.broadcast(nil)
		e.kick()
	})
}
