package disk

import (
	"sync"

	"pangea/internal/locking"
)

// dispatchDepth is how many jobs of one Queue run at once: the device queue
// depth the pool keeps at each drive. At depth 1 a drive idles through every
// job's host-side work — the real pread/pwrite behind the modelled slot, the
// pool's completion locks and broadcasts — before its next slot is even
// reserved; at 2 that work overlaps the other job's slot and the drive's
// timeline stays contiguous. Host work is a fraction of a slot, so nothing
// is left for a third request to hide: the sweep recorded in the README
// measured depth 4 equal to depth 2 on the drive-bound benchmark workloads.
const dispatchDepth = 2

// Queue is a bounded FIFO of I/O jobs bound to one drive. The buffer pool's
// spill and load pipelines attach one Queue per Disk of an Array: jobs start
// in submission order, at most dispatchDepth of them run at once (their
// device time still serialises on the drive's time model), and jobs on
// different drives' queues proceed in parallel — an N-drive array absorbs
// ~N× one drive's page traffic. Two jobs running together may finish in
// either order, so a consumer must not infer anything about one job from
// the completion of another.
//
// The workers are lazy, like the eviction daemon itself: they start on
// Submit and exit once the queue drains, so an idle pipeline holds no
// goroutines and a Queue never needs explicit shutdown.
type Queue struct {
	mu      locking.Mutex
	notFull *sync.Cond
	jobs    []func()
	limit   int
	workers int // live worker goroutines, at most dispatchDepth
}

// NewQueue builds a queue that admits at most limit pending jobs; Submit
// blocks while the queue is full, which backpressures the producer to the
// drive's real drain rate. limit must be positive.
func NewQueue(limit int) *Queue {
	if limit <= 0 {
		limit = 1
	}
	q := &Queue{limit: limit}
	q.mu.Init(locking.RankIOQueue)
	q.notFull = sync.NewCond(&q.mu)
	return q
}

// Submit enqueues job, starting a worker goroutine if fewer than
// dispatchDepth are live. It blocks while the queue holds limit pending
// jobs.
func (q *Queue) Submit(job func()) {
	q.mu.Lock()
	for len(q.jobs) >= q.limit {
		q.notFull.Wait()
	}
	q.jobs = append(q.jobs, job)
	if q.workers < dispatchDepth {
		q.workers++
		go q.drain()
	}
	q.mu.Unlock()
}

// Len reports the number of pending jobs (not counting those mid-execution).
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}

// drain is one worker: it takes jobs off the head of the queue until the
// queue is empty, then exits. No lock is held while a job runs.
func (q *Queue) drain() {
	for {
		q.mu.Lock()
		if len(q.jobs) == 0 {
			q.workers--
			q.mu.Unlock()
			return
		}
		job := q.jobs[0]
		q.jobs[0] = nil
		q.jobs = q.jobs[1:]
		q.notFull.Signal()
		q.mu.Unlock()
		job()
	}
}
