package locking

import (
	"sync"
	"testing"
)

// TestMutexBasics exercises the wrappers as plain mutexes in whichever
// build mode is active: mutual exclusion must hold and the wrappers must
// satisfy sync.Locker (LocalitySet and disk.Queue hang sync.Conds off
// them).
func TestMutexBasics(t *testing.T) {
	var m Mutex
	m.Init(RankSet)
	var _ sync.Locker = &m

	const workers, iters = 8, 2000
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d", counter, workers*iters)
	}
}

func TestRWMutexBasics(t *testing.T) {
	var m RWMutex
	m.Init(RankRegistry)

	val := 0
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Lock()
				val++
				m.Unlock()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.RLock()
				_ = val
				m.RUnlock()
			}
		}()
	}
	wg.Wait()
	if val != 2000 {
		t.Fatalf("val = %d, want 2000", val)
	}
}

func TestTryLock(t *testing.T) {
	var m Mutex
	m.Init(RankDisk)
	if !m.TryLock() {
		t.Fatal("TryLock on free mutex failed")
	}
	done := make(chan bool)
	go func() {
		done <- m.TryLock()
	}()
	if <-done {
		t.Fatal("TryLock on held mutex succeeded")
	}
	m.Unlock()
}

func TestRankString(t *testing.T) {
	if got := RankSet.String(); got != "core.LocalitySet.mu(rank 30)" {
		t.Fatalf("RankSet.String() = %q", got)
	}
	if got := Rank(99).String(); got != "rank 99" {
		t.Fatalf("Rank(99).String() = %q", got)
	}
}

// TestNestedInOrder takes the full documented chain in order; this must be
// silent in both build modes.
func TestNestedInOrder(t *testing.T) {
	ranks := []Rank{
		RankWorker, RankSetWriter, RankRegistry, RankSet, RankSideIndex,
		RankAllocTLSF, RankPFS, RankIOQueue, RankDisk,
	}
	ms := make([]*Mutex, len(ranks))
	for i, r := range ranks {
		ms[i] = new(Mutex)
		ms[i].Init(r)
	}
	for _, m := range ms {
		m.Lock()
	}
	for i := len(ms) - 1; i >= 0; i-- {
		ms[i].Unlock()
	}
}
