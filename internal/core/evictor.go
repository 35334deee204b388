package core

import (
	"sync"
	"sync/atomic"
)

// evictor is the pool's background eviction daemon. It owns all spill I/O:
// allocation paths never write to disk, they kick the daemon and block on a
// broadcast channel until memory is reclaimed (or the policy reports an
// error). The daemon streams: it claims victims and hands dirty ones to the
// per-drive spill writers without waiting for them, counting the bytes in
// flight as free soon, and each write's completion frees its own frame and
// wakes the waiters. The daemon is lazy — the goroutine starts on the first
// kick and exits once demand is covered by what is free or in flight, so
// idle pools hold no goroutine and can be garbage collected.
type evictor struct {
	bp *BufferPool

	mu      sync.Mutex
	running bool          // a daemon goroutine is live
	kicked  bool          // a pass was requested since the daemon last idled
	notify  chan struct{} // closed and replaced on every broadcast
	seq     uint64        // broadcast sequence number
	lastErr error         // error from the most recent failed round
	errSeq  uint64        // seq at which lastErr was recorded
	// stuck records that a blocked allocation's attempt failed and nothing
	// has been broadcast since; the next pass owes it one round whatever the
	// watermarks say (see shouldEvict).
	stuck bool

	// waiters counts allocations currently blocked on reclaimed memory.
	// Unpin consults it (one atomic load on the hot path) to decide whether
	// a page becoming evictable is worth a broadcast.
	waiters atomic.Int32
	// inFlight is the bytes of victim write-backs submitted to the spill
	// writers and not yet completed: memory that is about to be free.
	inFlight atomic.Int64
}

func newEvictor(bp *BufferPool) *evictor {
	return &evictor{bp: bp, notify: make(chan struct{})}
}

// kick requests an eviction pass, starting the daemon goroutine if none is
// live. Multiple kicks coalesce into one pass.
func (e *evictor) kick() {
	e.mu.Lock()
	e.kicked = true
	if !e.running {
		e.running = true
		go e.run()
	}
	e.mu.Unlock()
}

// demand is a blocked allocation's kick: its attempt, made after observing
// seq, has just failed.
func (e *evictor) demand(seq uint64) {
	e.mu.Lock()
	if e.seq == seq {
		e.stuck = true
	}
	e.mu.Unlock()
	e.kick()
}

// broadcast wakes every blocked allocation. A non-nil err records a failed
// eviction round (policy refusal or spill I/O error) for waiters to pick up.
func (e *evictor) broadcast(err error) {
	e.mu.Lock()
	e.seq++
	e.stuck = false
	if err != nil {
		e.lastErr = err
		e.errSeq = e.seq
	}
	close(e.notify)
	e.notify = make(chan struct{})
	e.mu.Unlock()
}

// observe returns the current wait channel and sequence number. A waiter
// must call observe before its allocation attempt: any reclaim after the
// observed point closes the returned channel, so no wakeup can be lost.
func (e *evictor) observe() (<-chan struct{}, uint64) {
	e.mu.Lock()
	ch, seq := e.notify, e.seq
	e.mu.Unlock()
	return ch, seq
}

// errSince reports an eviction error recorded after the observed sequence
// point, if any.
func (e *evictor) errSince(seq uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.errSeq > seq {
		return e.lastErr
	}
	return nil
}

// timeoutErr decides what a timed-out allocation reports: the eviction
// error recorded since the waiter's observation point if there is one
// (the broadcast and the deadline can fire in the same select), else a
// bare ErrNoEvictable.
func (e *evictor) timeoutErr(seq uint64) error {
	if err := e.errSince(seq); err != nil {
		return err
	}
	return ErrNoEvictable
}

// run is the daemon loop: drain eviction passes until a pass completes with
// no pending kick, then exit. A pass claims victims round after round while
// demand exceeds what is free or in flight; it never waits for a write. If a
// pass reclaims too little, the waiter's failed retry — or the completion of
// a write-back — kicks the next one.
func (e *evictor) run() {
	for {
		e.mu.Lock()
		e.kicked = false
		seq := e.seq
		e.mu.Unlock()

		progressed := false
		// A write-back that failed during this pass ends it like any failed
		// round: its victim is evictable again, and picking it straight back
		// up would spin on a broken drive. A fresh kick gets a fresh pass.
		for round := 0; e.shouldEvict(round) && e.errSince(seq) == nil; round++ {
			claimed, err := e.bp.evictOnce()
			if err != nil {
				// Wake the waiters with the error, but don't end the
				// daemon outright: a fresh kick that arrived meanwhile gets
				// a fresh pass from the outer loop's kicked re-check below
				// instead of riding out its timeout.
				e.broadcast(err)
				break
			}
			if !claimed {
				// Nothing evictable right now. Park; an Unpin, a DropSet or
				// a completing write-back will wake the waiters, and their
				// retry re-kicks us.
				break
			}
			progressed = true
		}

		e.mu.Lock()
		if !e.kicked {
			// A pass that made progress may have stopped at the waiter
			// gate (free back above highWater) with hard-quota overage
			// still outstanding, and the waiters' successful retries never
			// re-kick; give the overage another pass rather than stranding
			// it until the set's next growth. A pass that claimed nothing
			// must exit even if overage remains (the victims are pinned or
			// already on their way out) — the next kick retries.
			if progressed && e.bp.anyOverQuota() {
				e.mu.Unlock()
				continue
			}
			e.running = false
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
	}
}

// freeSoon is the memory the daemon counts as supply: free bytes plus the
// victim write-backs in flight, whose frames are released as each lands.
func (e *evictor) freeSoon() int64 { return e.bp.alloc.FreeBytes() + e.inFlight.Load() }

// shouldEvict gates every round of a pass. A round may spill dirty pages,
// so it must be justified by somebody who needs the memory: while
// allocations are blocked, rounds run until free memory plus the bytes in
// flight reach the high watermark, and a waiter whose attempt failed with
// nothing freed since and nothing in flight is owed one round beyond that
// (it may need memory even when free bytes look healthy, e.g. under
// fragmentation);
// with no waiter left, genuine watermark pressure (free soon below the
// background low-water mark plus any unpaid starved-prefetch budget —
// speculation that was refused memory is a real consumer waiting, it just
// refuses to block for it) or a set over its hard quota (admission
// control's self-eviction) keeps the pass alive. Counting in-flight bytes
// as supply is what lets the daemon keep every drive writing without taking
// one page more per episode than a daemon that waited for each write.
func (e *evictor) shouldEvict(round int) bool {
	bp := e.bp
	if e.waiters.Load() > 0 {
		if e.freeSoon() < bp.highWater {
			return true
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		return round == 0 && e.stuck && e.inFlight.Load() == 0
	}
	return e.freeSoon() < bp.lowWater+bp.loadStarved.Load() ||
		bp.anyOverQuota()
}
