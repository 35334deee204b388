package core

import (
	"fmt"

	"pangea/internal/disk"
)

// spillQueueDepth bounds how many page write-backs may be pending on one
// drive. A full queue blocks the daemon's submission loop, so eviction can
// never buffer unbounded page references ahead of what the drives drain.
const spillQueueDepth = 32

// spillPipeline fans victim write-back out across the disk array with one
// bounded queue — and its lazy writer goroutines — per drive. The paged file
// layer places pages round-robin across the array precisely so that N
// drives deliver ~N× write bandwidth (paper §4); writing victims serially
// from the daemon forfeited that, stalling every blocked allocator behind
// single-drive spill I/O. A drive's queue keeps two writes at the drive
// (disk.Queue), so one's completion work overlaps the other's device time
// and two victims on one drive may settle in either order — completion is
// per page; jobs on different drives land concurrently.
type spillPipeline struct {
	bp     *BufferPool
	queues []*disk.Queue // one per drive, indexed like the Array
}

func newSpillPipeline(bp *BufferPool, arr *disk.Array) *spillPipeline {
	sp := &spillPipeline{bp: bp, queues: make([]*disk.Queue, arr.Len())}
	for i := range sp.queues {
		sp.queues[i] = disk.NewQueue(spillQueueDepth)
	}
	return sp
}

// submit queues the write-back of p, a dirty victim of set s held under an
// eviction claim (so its bytes cannot be touched mid-flight), on its drive's
// writer and returns; it blocks only while that drive's queue is full. The
// write's completion alone ends the claim: it frees the frame — or, if the
// write failed, keeps the page resident and dirty — and tells the daemon's
// waiters the outcome. A landed write re-kicks the daemon, since demand may
// still exceed what is free or in flight; a failed one only reports, as a
// failed round always did, and the waiters' own retries ask for the next
// round.
func (sp *spillPipeline) submit(s *LocalitySet, p *Page) {
	bp, e := sp.bp, sp.bp.evictor
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
	sp.queues[loc.Drive].Submit(func() {
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
