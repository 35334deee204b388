package disk

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedJobs submits n jobs that each report their index on started and then
// hold their worker until their gate is closed.
func gatedJobs(q *Queue, n int) (started chan int, gates []chan struct{}, done *sync.WaitGroup) {
	started = make(chan int, n)
	gates = make([]chan struct{}, n)
	done = new(sync.WaitGroup)
	done.Add(n)
	for i := range gates {
		i := i
		gates[i] = make(chan struct{})
		q.Submit(func() {
			started <- i
			<-gates[i]
			done.Done()
		})
	}
	return started, gates, done
}

// TestQueueDispatchesInOrderAtDepth: the first dispatchDepth jobs run together
// and no further one starts until a running job finishes; each completion —
// whichever of the running jobs it is — starts exactly the next job in
// submission order.
func TestQueueDispatchesInOrderAtDepth(t *testing.T) {
	const n = 16
	q := NewQueue(n)
	started, gates, done := gatedJobs(q, n)
	running := map[int]bool{}
	for len(running) < dispatchDepth {
		running[<-started] = true
	}
	for i := 0; i < dispatchDepth; i++ {
		if !running[i] {
			t.Fatalf("first jobs running are %v, want the first %d submitted", running, dispatchDepth)
		}
	}
	select {
	case i := <-started:
		t.Fatalf("job %d started with %d jobs already running", i, dispatchDepth)
	case <-time.After(20 * time.Millisecond):
	}
	if got := q.Len(); got != n-dispatchDepth {
		t.Fatalf("Len = %d with %d of %d jobs running, want %d", got, dispatchDepth, n, n-dispatchDepth)
	}
	// Finish the running jobs youngest first, so completions on the queue
	// are out of submission order throughout.
	for next := dispatchDepth; next < n; next++ {
		youngest := -1
		for i := range running {
			if i > youngest {
				youngest = i
			}
		}
		close(gates[youngest])
		delete(running, youngest)
		select {
		case i := <-started:
			if i != next {
				t.Fatalf("job %d started after job %d finished, want job %d: not FIFO", i, youngest, next)
			}
			running[i] = true
		case <-time.After(2 * time.Second):
			t.Fatalf("job %d never started after job %d finished", next, youngest)
		}
	}
	for i := range running {
		close(gates[i])
	}
	done.Wait()
}

// TestQueueSubmitBlocksWhenFull: limit bounds the pending jobs, whatever the
// number running.
func TestQueueSubmitBlocksWhenFull(t *testing.T) {
	q := NewQueue(1)
	started, gates, done := gatedJobs(q, dispatchDepth) // occupy every worker
	for i := 0; i < dispatchDepth; i++ {
		<-started
	}
	done.Add(2)
	q.Submit(func() { done.Done() }) // fills the single pending slot

	submitted := make(chan struct{})
	go func() {
		q.Submit(func() { done.Done() })
		close(submitted)
	}()
	select {
	case <-submitted:
		t.Fatal("Submit returned while the queue was full")
	case <-time.After(20 * time.Millisecond):
	}
	close(gates[0])
	select {
	case <-submitted:
	case <-time.After(2 * time.Second):
		t.Fatal("Submit never unblocked after a worker came free")
	}
	for _, g := range gates[1:] {
		close(g)
	}
	done.Wait()
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", q.Len())
	}
}

// liveWorkers reads the queue's worker count.
func liveWorkers(q *Queue) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.workers
}

func TestQueueWorkersExitAndRestart(t *testing.T) {
	q := NewQueue(4)
	for round := 0; round < 3; round++ {
		var done sync.WaitGroup
		done.Add(4)
		for i := 0; i < 4; i++ {
			q.Submit(done.Done)
		}
		done.Wait()
		// The lazy workers exit once the queue drains.
		deadline := time.Now().Add(2 * time.Second)
		for liveWorkers(q) != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d workers still live on a drained queue", round, liveWorkers(q))
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestQueueKeepsThrottledDriveBusy: N equal writes to a throttled drive, each
// job doing host-side work of 0.3 slot after its device call returns, finish
// in N slots — the host work of one job overlaps the other's slot. A queue
// that runs one job to completion before it reserves the next slot needs
// 1.3 N slots.
func TestQueueKeepsThrottledDriveBusy(t *testing.T) {
	const (
		n    = 20
		slot = 5 * time.Millisecond
	)
	d := mustDisk(t, Config{SeekLatency: slot})
	f, err := d.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4<<10)
	// The bound leaves two slots for sleep overshoot; a loaded box can
	// exceed that, so the best of three runs counts.
	best := time.Duration(1 << 62)
	for attempt := 0; attempt < 3 && best > n*slot*11/10; attempt++ {
		q := NewQueue(n)
		var done sync.WaitGroup
		var failed atomic.Int32
		done.Add(n)
		begin := time.Now()
		for i := 0; i < n; i++ {
			off := int64(i * len(buf))
			q.Submit(func() {
				defer done.Done()
				if _, err := f.WriteAt(buf, off); err != nil {
					failed.Add(1)
				}
				time.Sleep(slot * 3 / 10)
			})
		}
		done.Wait()
		if took := time.Since(begin); took < best {
			best = took
		}
		if failed.Load() != 0 {
			t.Fatalf("%d of %d writes failed", failed.Load(), n)
		}
	}
	if best < n*slot {
		t.Fatalf("%d writes took %v, less than the drive model's %v", n, best, n*slot)
	}
	if best > n*slot*11/10 {
		t.Fatalf("%d writes took %v, want within 10%% of %v: the drive idles through each job's host work", n, best, n*slot)
	}
}

func TestWriteFaultInjection(t *testing.T) {
	d := mustDisk(t, Unthrottled())
	f, err := d.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sentinel := errors.New("drive on fire")
	d.SetWriteFault(func() error { return sentinel })
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, sentinel) {
		t.Fatalf("WriteAt error = %v, want injected %v", err, sentinel)
	}
	if s := d.Stats(); s.Writes != 0 {
		t.Fatalf("failed write counted: Writes = %d, want 0", s.Writes)
	}
	d.SetWriteFault(nil)
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("WriteAt after clearing fault: %v", err)
	}
}

func TestArrayStatsSumsAllCounters(t *testing.T) {
	a, err := NewArray(t.TempDir(), 2, Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	defer a.RemoveAll()
	buf := make([]byte, 100)
	for i := 0; i < 2; i++ {
		f, err := a.Disk(i).Create("f")
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt(buf, 0)
		f.ReadAt(buf, 0)
		f.Close()
	}
	s := a.Stats()
	if s.Writes != 2 || s.BytesWritten != 200 {
		t.Fatalf("writes=%d bytes=%d, want 2/200", s.Writes, s.BytesWritten)
	}
	if s.Reads != 2 || s.BytesRead != 200 {
		t.Fatalf("reads=%d bytes=%d, want 2/200", s.Reads, s.BytesRead)
	}
	per := a.PerDriveStats()
	if len(per) != 2 {
		t.Fatalf("PerDriveStats len = %d, want 2", len(per))
	}
	for i, ds := range per {
		if ds.Reads != 1 || ds.Writes != 1 {
			t.Fatalf("drive %d: reads=%d writes=%d, want 1/1", i, ds.Reads, ds.Writes)
		}
	}
}
