package services

import (
	"encoding/binary"
	"errors"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pangea/internal/core"
	"pangea/internal/disk"
)

// driveFiles counts the files on the pool's drives.
func driveFiles(t *testing.T, bp *core.BufferPool) int {
	t.Helper()
	n := 0
	for d := 0; d < bp.Array().Len(); d++ {
		ents, err := os.ReadDir(bp.Array().Disk(d).Dir())
		if err != nil {
			t.Fatal(err)
		}
		n += len(ents)
	}
	return n
}

// TestNewShuffleFailureLeavesNoSets: a NewShuffle that fails part-way — a
// partition name already taken, or a small page the page cannot hold, which is
// only found out after the partition's set exists — drops the sets it created:
// nothing stays registered, no file stays on the drives, and the prefix can be
// used again. Shuffle.Drop does the same for a shuffle that was made.
func TestNewShuffleFailureLeavesNoSets(t *testing.T) {
	bp := newPool(t, 1<<20)
	taken := mkSet(t, bp, "shuf-2", 32<<10)
	if sh, err := NewShuffle(bp, "shuf", 4, 32<<10, 8<<10); err == nil {
		_ = sh.Drop()
		t.Fatal("NewShuffle over a taken partition name succeeded")
	}
	if sets := bp.Sets(); len(sets) != 1 || sets[0] != taken {
		t.Errorf("%d sets registered after the failed NewShuffle, want only the one that was in its way", len(sets))
	}
	if err := bp.DropSet(taken); err != nil {
		t.Fatal(err)
	}
	if sh, err := NewShuffle(bp, "shuf", 4, 32<<10, 64<<10); err == nil {
		_ = sh.Drop()
		t.Fatal("NewShuffle with a small page larger than the page succeeded")
	}
	if n, files := len(bp.Sets()), driveFiles(t, bp); n != 0 || files != 0 {
		t.Errorf("%d sets registered and %d files on the drives after the failed NewShuffles, want none", n, files)
	}

	sh, err := NewShuffle(bp, "shuf", 4, 32<<10, 8<<10)
	if err != nil {
		t.Fatalf("NewShuffle on the prefix two failed attempts used: %v", err)
	}
	bufs := sh.Writer()
	for i := 0; i < 4000; i++ {
		if err := bufs[i%4].Add(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := CloseWriters(bufs); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sh.Drop(); err != nil {
		t.Fatal(err)
	}
	if n, files, used := len(bp.Sets()), driveFiles(t, bp), bp.UsedBytes(); n != 0 || files != 0 || used != 0 {
		t.Errorf("after Drop: %d sets registered, %d files on the drives, %d bytes used; want none", n, files, used)
	}
}

// TestShuffleReadPartitionConsumes pins ReadPartition's contract down: a
// partition's records come back exactly once, to a callback that several
// goroutines may be running at once; the read frees every page; and the
// partition is gone afterwards — a second ReadPartition, a ScanSet and a bare
// Pin each fail with core.ErrConsumed instead of scanning nothing — while the
// set still counts its pages.
func TestShuffleReadPartitionConsumes(t *testing.T) {
	bp := newPool(t, 4<<20)
	sh, err := NewShuffle(bp, "once", 2, 32<<10, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6000
	bufs := sh.Writer()
	rec := make([]byte, 100)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(rec, uint32(i))
		if err := bufs[i%2].Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := CloseWriters(bufs); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if a := sh.Sink(0).Set().Attrs(); !a.ReadOnce || a.Durability != core.WriteBack {
		t.Errorf("partition attributes %+v, want write-back and read-once", a)
	}

	set := sh.Sink(0).Set()
	pages := set.NumPages()
	seen := make([]atomic.Int32, n)
	if err := sh.ReadPartition(0, 2, func(rec []byte) error {
		seen[binary.LittleEndian.Uint32(rec)].Add(1) // two threads: fn runs concurrently
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if got, want := seen[i].Load(), int32(1-i%2); got != want {
			t.Fatalf("record %d read %d times from partition 0, want %d", i, got, want)
		}
	}
	if got := set.ResidentPages(); got != 0 {
		t.Errorf("%d pages of the partition resident after it was read, want 0", got)
	}
	if got := set.NumPages(); got != pages || len(set.PageNums()) != int(pages) {
		t.Errorf("NumPages = %d, PageNums lists %d; want %d: consumed pages still count", got, len(set.PageNums()), pages)
	}

	none := func([]byte) error { t.Error("a record came back from a consumed partition"); return nil }
	if err := sh.ReadPartition(0, 1, none); !errors.Is(err, core.ErrConsumed) {
		t.Errorf("second ReadPartition = %v, want core.ErrConsumed", err)
	}
	if err := ScanSet(set, 2, func(_ int, rec []byte) error { return none(rec) }); !errors.Is(err, core.ErrConsumed) {
		t.Errorf("ScanSet of a consumed partition = %v, want core.ErrConsumed", err)
	}
	if _, err := set.Pin(0); !errors.Is(err, core.ErrConsumed) {
		t.Errorf("Pin of a consumed page = %v, want core.ErrConsumed", err)
	}
	if a := set.Attrs(); a.CurrentOp != core.OpNone {
		t.Errorf("CurrentOp = %v after the failed scans, want none", a.CurrentOp)
	}
	if err := sh.Drop(); err != nil {
		t.Fatal(err)
	}
}

// TestShuffleReduceFreesWithoutWriting runs a shuffle twice the size of its
// pool the way the benchmark's shuffle_agg does — two writers, then two
// readers over alternating partitions — and holds the reduce to the byte
// floor: it writes (almost) nothing, because a page dies at its reader's
// release instead of becoming its set's next dirty victim; it reads only what
// the map spilled; each partition's resident pages are handed out before its
// spilled ones; and when the last reader is done the pool is empty without a
// single DropSet.
func TestShuffleReduceFreesWithoutWriting(t *testing.T) {
	const (
		pageSize, small  = 16 << 10, 4 << 10
		poolPages, parts = 64, 4
		writers, readers = 2, 2
		recSize          = 100
		perWriter        = 2 * poolPages * pageSize / (recSize + recHeaderSize) / writers
	)
	arr, err := disk.NewArray(t.TempDir(), 2, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := core.NewPool(core.PoolConfig{Memory: poolPages * pageSize, Array: arr})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShuffle(bp, "job", parts, pageSize, small)
	if err != nil {
		t.Fatal(err)
	}

	// Map.
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bufs := sh.Writer()
			rec := make([]byte, recSize)
			for i := 0; i < perWriter; i++ {
				id := uint32(w*perWriter + i)
				binary.LittleEndian.PutUint32(rec, id)
				if err := bufs[id%parts].Add(rec); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
			if err := CloseWriters(bufs); err != nil {
				t.Errorf("close: %v", err)
			}
		}(w)
	}
	wg.Wait()
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	// The map is over when its write-backs are: the daemon keeps claiming
	// victims until free memory is back above the low watermark (a sixteenth
	// of the pool by default), and each one lands on its own.
	deadline := time.Now().Add(10 * time.Second)
	for bp.Stats().SpillsInFlight.Load() != 0 || bp.Capacity()-bp.UsedBytes() < bp.Capacity()/16 {
		if time.Now().After(deadline) {
			t.Fatal("the map's write-backs never landed")
		}
		time.Sleep(time.Millisecond)
	}
	var total, resident int64
	order := make([]int, parts) // the partitions, most resident pages first
	for p := range order {
		order[p] = p
		total += sh.Sink(p).Set().NumPages()
		resident += int64(sh.Sink(p).Set().ResidentPages())
	}
	sort.SliceStable(order, func(i, j int) bool {
		return sh.Sink(order[i]).Set().ResidentPages() > sh.Sink(order[j]).Set().ResidentPages()
	})
	if total < 2*poolPages-parts || resident == 0 || resident == total {
		t.Fatalf("the map left %d of %d pages resident in a pool of %d: not the shape under test", resident, total, poolPages)
	}
	before := arr.Stats()

	// Reduce: the readers take alternating partitions through the cursor,
	// noting for each page how many of the partition's pages had been read
	// from disk by the time it was handed out. They start on the partitions
	// the map left most resident (it leaves some whole and others all but
	// spilled), so each frees frames before it needs any: two readers that
	// both start on spilled partitions want more frames for their windows
	// than the watermarks keep free, and the pass that refills the reserve
	// spills a few pages of the partitions still waiting — the pool working
	// as built, but not the release path this test is about.
	seen := make([]atomic.Int32, writers*perWriter)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; i < parts; i += readers {
				p := order[i]
				set := sh.Sink(p).Set()
				it := PageIteratorsFor(set, set.PageNums(), 1)[0]
				// Sampled after the cursor took its order, so a page evicted
				// in between can only loosen the check below.
				wasResident, loaded, window := set.ResidentPages(), set.Stats().LoadReads.Load(), set.ReadAhead()
				for k := 0; ; k++ {
					page, err := it.Next()
					if err != nil {
						t.Errorf("partition %d: %v", p, err)
						return
					}
					if page == nil {
						break
					}
					// With the resident pages first, the only reads so far
					// are the window's hints past the resident ones; two more
					// for pages the evictor took before their turn.
					if got, most := set.Stats().LoadReads.Load()-loaded, int64(max(0, k+1+window-wasResident)+2); got > most {
						t.Errorf("partition %d: %d pages read from disk when page %d of the scan was handed out, with %d resident at its start: want at most %d",
							p, got, k, wasResident, most)
					}
					if err := WalkPage(page.Bytes(), func(rec []byte) error {
						if id := binary.LittleEndian.Uint32(rec); int(id%parts) != p {
							t.Errorf("record %d found in partition %d", id, p)
						} else {
							seen[id].Add(1)
						}
						return nil
					}); err != nil {
						t.Errorf("partition %d: %v", p, err)
					}
					if err := it.Release(page); err != nil {
						t.Errorf("partition %d: %v", p, err)
						return
					}
				}
				set.SetCurrentOp(core.OpNone)
			}
		}(r)
	}
	wg.Wait()
	for id := range seen {
		if n := seen[id].Load(); n != 1 {
			t.Fatalf("record %d read back %d times, want once", id, n)
		}
	}

	during := arr.Stats()
	t.Logf("map left %d of %d pages resident; reduce: %d drive writes, %d drive reads", resident, total, during.Writes-before.Writes, during.Reads-before.Reads)
	if got := during.Writes - before.Writes; got > 2 {
		t.Errorf("%d drive writes during the reduce, want at most 2: released pages must die, not be spilled", got)
	}
	if got, spilled := during.Reads-before.Reads, total-resident; got > spilled+2 {
		t.Errorf("%d drive reads during the reduce, want at most the %d pages the map spilled (+2)", got, spilled)
	}
	if got := bp.UsedBytes(); got != 0 {
		t.Errorf("UsedBytes = %d with every partition consumed and no set dropped, want 0", got)
	}
	if err := sh.Drop(); err != nil {
		t.Fatal(err)
	}
}

// TestShuffleRegionReleaseNotBehindAllocation: in a pool of one page, writer
// B holds the page's first small page while writer A fills the other three
// and asks for the next page, which only B's release can make room for. B's
// Close must not wait for A's allocation, and A must then get its page
// instead of failing at the allocation timeout.
func TestShuffleRegionReleaseNotBehindAllocation(t *testing.T) {
	const pageSize, timeout = 64 << 10, 2 * time.Second
	arr, err := disk.NewArray(t.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := core.NewPool(core.PoolConfig{Memory: pageSize + pageSize/2, Array: arr, AllocShards: 1, AllocTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShuffle(bp, "one", 1, pageSize, pageSize/4)
	if err != nil {
		t.Fatal(err)
	}
	sink, a, b := sh.Sink(0), sh.Writer(), sh.Writer()
	rec := make([]byte, 1000)
	if err := b[0].Add(rec); err != nil { // B: small page 0
		t.Fatal(err)
	}
	perSmall := sink.smallSize / (len(rec) + recHeaderSize)
	done := make(chan error, 1)
	var aTook time.Duration
	go func() {
		start := time.Now()
		var err error
		for i := 0; i <= 3*perSmall && err == nil; i++ { // A: small pages 1–3, then the next page
			err = a[0].Add(rec)
		}
		aTook = time.Since(start)
		done <- err
	}()
	deadline := time.Now().Add(timeout)
	for taking := false; !taking; time.Sleep(time.Millisecond) { // until A is pinning the next page
		if time.Now().After(deadline) {
			t.Fatal("A never asked for the next page")
		}
		sink.mu.Lock()
		taking = sink.taking != nil
		sink.mu.Unlock()
	}
	start := time.Now()
	if err := CloseWriters(b); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > timeout/4 {
		t.Errorf("B's Close took %v: it waited behind A's allocation", took)
	}
	if err := <-done; err != nil {
		t.Fatalf("A failed after %v: %v", aTook, err)
	}
	if err := CloseWriters(a); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
}
