package cluster

import (
	"strings"
	"sync"
	"testing"
)

// TestFetchFromDeadWorker: operations against a closed worker fail cleanly
// instead of hanging.
func TestFetchFromDeadWorker(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 1<<20)
	w := workers[0]
	if err := cl.CreateSet("s", 4096, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.FetchSet(w.Addr(), "s", func([]byte) error { return nil }); err == nil {
		t.Error("fetch from a dead worker must fail")
	}
	if err := cl.AddRecords(w.Addr(), "s", [][]byte{{1}}); err == nil {
		t.Error("add to a dead worker must fail")
	}
}

// TestScanUnknownSet: the scan stream reports the missing set in-band.
func TestScanUnknownSet(t *testing.T) {
	_, workers, _ := startCluster(t, 1, 1<<20)
	dp := NewDataProxy(workers[0], testKey)
	err := dp.Scan("ghost", 2, func(int, []byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("err = %v, want missing-set error naming the set", err)
	}
}

// TestScanCallbackErrorUnpinsPages: a failing computation callback aborts
// the scan, and the storage process releases every pin so the set can be
// dropped immediately.
func TestScanCallbackErrorUnpinsPages(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 4<<20)
	w := workers[0]
	if err := cl.CreateSet("s", 8<<10, 0); err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for i := 0; i < 2000; i++ {
		recs = append(recs, make([]byte, 64))
	}
	if err := cl.AddRecords(w.Addr(), "s", recs); err != nil {
		t.Fatal(err)
	}
	dp := NewDataProxy(w, testKey)
	wantErr := "computation exploded"
	err := dp.Scan("s", 2, func(int, []byte) error {
		return &scanErr{wantErr}
	})
	if err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("err = %v, want the callback error", err)
	}
	// Give the storage process a moment to observe the closed connection,
	// then the drop must succeed (retry covers the race between the proxy
	// returning and the server unpinning).
	var dropErr error
	for i := 0; i < 50; i++ {
		if dropErr = cl.DropSet(w.Addr(), "s"); dropErr == nil {
			return
		}
	}
	t.Errorf("drop after aborted scan: %v", dropErr)
}

type scanErr struct{ s string }

func (e *scanErr) Error() string { return e.s }

// TestConcurrentScansSameSet: two proxies can scan one set concurrently;
// the storage process pins pages independently per stream.
func TestConcurrentScansSameSet(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 4<<20)
	w := workers[0]
	if err := cl.CreateSet("s", 16<<10, 0); err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for i := 0; i < 3000; i++ {
		recs = append(recs, make([]byte, 50))
	}
	if err := cl.AddRecords(w.Addr(), "s", recs); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	counts := make([]int, 3)
	errs := make([]error, 3)
	for i := range counts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dp := NewDataProxy(w, testKey)
			var mu sync.Mutex
			errs[i] = dp.Scan("s", 2, func(_ int, rec []byte) error {
				mu.Lock()
				counts[i]++
				mu.Unlock()
				return nil
			})
		}(i)
	}
	wg.Wait()
	for i := range counts {
		if errs[i] != nil {
			t.Fatalf("scan %d: %v", i, errs[i])
		}
		if counts[i] != 3000 {
			t.Errorf("scan %d saw %d records, want 3000", i, counts[i])
		}
	}
}

// TestWriterSealedBeforeScan: records buffered in the server-side writer
// become visible the moment a scan starts (the writer is closed first).
func TestWriterSealedBeforeScan(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 1<<20)
	w := workers[0]
	if err := cl.CreateSet("s", 32<<10, 0); err != nil {
		t.Fatal(err)
	}
	// A single small record stays in the writer's open page.
	if err := cl.AddRecords(w.Addr(), "s", [][]byte{[]byte("only")}); err != nil {
		t.Fatal(err)
	}
	var got int
	if err := cl.FetchSet(w.Addr(), "s", func(rec []byte) error {
		got++
		if string(rec) != "only" {
			t.Errorf("rec = %q", rec)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("fetched %d records, want 1", got)
	}
}

// TestWorkerShutdownMessage: the shutdown protocol honours the key.
func TestWorkerShutdownMessage(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 1<<20)
	w := workers[0]
	// Wrong key: refused, and the worker goes on serving.
	if _, err := call[any](w.Addr(), AuthToken("wrong"), ShutdownReq{}); err == nil {
		t.Error("shutdown with wrong key must be refused")
	}
	if _, err := cl.NodeStats(w.Addr()); err != nil {
		t.Fatalf("worker after a refused shutdown: %v", err)
	}
	// Right key: acknowledged; the worker stops accepting.
	if _, err := call[any](w.Addr(), AuthToken(testKey), ShutdownReq{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.NodeStats(w.Addr()); err == nil {
		t.Error("worker still serves after an acknowledged shutdown")
	}
}

// TestDoubleCloseWorker is idempotent.
func TestDoubleCloseWorker(t *testing.T) {
	_, workers, _ := startCluster(t, 1, 1<<20)
	if err := workers[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := workers[0].Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestPageWriterRecordsSurviveEviction: proxy-written pages spill and
// reload like any other locality set data.
func TestPageWriterRecordsSurviveEviction(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 96<<10)
	w := workers[0]
	if err := cl.CreateSet("out", 16<<10, 0); err != nil {
		t.Fatal(err)
	}
	dp := NewDataProxy(w, testKey)
	pw := dp.NewPageWriter("out")
	const n = 4000
	rec := make([]byte, 64)
	for i := 0; i < n; i++ {
		rec[0], rec[1] = byte(i), byte(i>>8)
		if err := pw.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Pool().Stats().Evictions.Load() == 0 {
		t.Fatal("expected evictions")
	}
	var got [2]int // one slot per scan thread
	if err := dp.Scan("out", 2, func(thread int, rec []byte) error {
		got[thread]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got[0]+got[1] != n {
		t.Errorf("scanned %d, want %d", got[0]+got[1], n)
	}
}
