package services

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"pangea/internal/core"
	"pangea/internal/disk"
)

func newPool(t *testing.T, mem int64) *core.BufferPool {
	t.Helper()
	arr, err := disk.NewArray(t.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	bp, err := core.NewPool(core.PoolConfig{Memory: mem, Array: arr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	return bp
}

func mkSet(t *testing.T, bp *core.BufferPool, name string, pageSize int64) *core.LocalitySet {
	t.Helper()
	s, err := bp.CreateSet(core.SetSpec{Name: name, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRecordFramingRoundTrip(t *testing.T) {
	buf := make([]byte, 4096)
	initPage(buf, 4096-pageHeaderSize)
	recs := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc"), {}, []byte("end")}
	off := pageHeaderSize
	for _, r := range recs[:3] {
		var ok bool
		off, ok = appendRecord(buf, off, len(buf), r)
		if !ok {
			t.Fatalf("append %q failed", r)
		}
	}
	var got [][]byte
	if err := WalkPage(buf, func(rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d records, want 3", len(got))
	}
	for i, r := range recs[:3] {
		if !bytes.Equal(got[i], r) {
			t.Errorf("record %d = %q, want %q", i, got[i], r)
		}
	}
}

func TestAppendRecordRejectsOverflow(t *testing.T) {
	buf := make([]byte, 64)
	initPage(buf, 64-pageHeaderSize)
	_, ok := appendRecord(buf, pageHeaderSize, len(buf), make([]byte, 61))
	if ok {
		t.Error("record larger than region must be rejected")
	}
}

func TestSequentialWriteReadRoundTrip(t *testing.T) {
	bp := newPool(t, 1<<20)
	s := mkSet(t, bp, "s", 4096)
	const n = 500
	w := NewSeqWriter(s)
	for i := 0; i < n; i++ {
		if err := w.Add([]byte(fmt.Sprintf("record-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != n {
		t.Errorf("Count = %d, want %d", w.Count(), n)
	}
	// Attribute inference (§3.2): writer stamped sequential-write.
	if a := s.Attrs(); a.Writing != core.SequentialWrite {
		t.Errorf("Writing = %v, want sequential-write", a.Writing)
	}

	seen := make([]bool, n)
	var mu sync.Mutex
	if err := ScanSet(s, 4, func(_ int, rec []byte) error {
		var i int
		if _, err := fmt.Sscanf(string(rec), "record-%d", &i); err != nil {
			return err
		}
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("record %d missing from scan", i)
		}
	}
	if a := s.Attrs(); a.Reading != core.SequentialRead {
		t.Errorf("Reading = %v, want sequential-read", a.Reading)
	}
}

func TestSequentialSpillAndRescan(t *testing.T) {
	// Working set exceeds memory: pages spill under the data-aware policy
	// and every record still comes back on re-scan (×5 like Fig 7's test).
	bp := newPool(t, 8*4096)
	s := mkSet(t, bp, "big", 4096)
	const n = 20000
	w := NewSeqWriter(s)
	for i := 0; i < n; i++ {
		if err := w.Add([]byte(fmt.Sprintf("%08d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if bp.Stats().Evictions.Load() == 0 {
		t.Fatal("expected spills for oversized working set")
	}
	for iter := 0; iter < 5; iter++ {
		var count int64
		var mu sync.Mutex
		if err := ScanSet(s, 2, func(_ int, rec []byte) error {
			mu.Lock()
			count++
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if count != n {
			t.Fatalf("iteration %d: scanned %d records, want %d", iter, count, n)
		}
	}
}

func TestSeqWriterRejectsOversizedRecord(t *testing.T) {
	bp := newPool(t, 1<<20)
	s := mkSet(t, bp, "s", 256)
	w := NewSeqWriter(s)
	if err := w.Add(make([]byte, 256)); err == nil {
		t.Error("record exceeding page size must be rejected")
	}
	_ = w.Close()
}

// TestRecordSizeRule: every row writer applies CheckRecordSize. An empty
// record is its own end-of-region marker — written, it would hide itself and
// every record after it in the page from readers while Count said otherwise —
// so it is refused, like a record no region can hold; the largest record that
// fits round-trips.
func TestRecordSizeRule(t *testing.T) {
	bp := newPool(t, 1<<20)
	if err := WriteAll(mkSet(t, bp, "holed", 256), [][]byte{[]byte("a"), {}, []byte("b")}); err == nil {
		t.Error("a batch with an empty record was written; a scan would stop short at it")
	}
	seq := NewSeqWriter(mkSet(t, bp, "seq", 256))
	sink, err := NewShuffleSink(mkSet(t, bp, "shuf", 256), 64)
	if err != nil {
		t.Fatal(err)
	}
	shuf := NewVirtualShuffleBuffer(sink)
	for _, wr := range []struct {
		name   string
		region int
		add    func([]byte) error
		close  func() error
		set    string
	}{
		{"SeqWriter", 256 - pageHeaderSize, seq.Add, seq.Close, "seq"},
		{"VirtualShuffleBuffer", sink.smallSize, shuf.Add, func() error { return errors.Join(shuf.Close(), sink.Close()) }, "shuf"},
	} {
		most := wr.region - recHeaderSize
		for _, n := range []int{0, most + 1, 1 << 20} {
			if err := wr.add(make([]byte, n)); err == nil {
				t.Errorf("%s took a %d-byte record; a region holds 1 to %d", wr.name, n, most)
			}
		}
		if err := wr.add(make([]byte, most)); err != nil {
			t.Errorf("%s refused the largest record that fits (%d bytes): %v", wr.name, most, err)
		}
		if err := wr.close(); err != nil {
			t.Fatal(err)
		}
		set, _ := bp.GetSet(wr.set)
		var got []int
		if err := ScanSet(set, 1, func(_ int, rec []byte) error {
			got = append(got, len(rec))
			return nil
		}); err != nil || len(got) != 1 || got[0] != most {
			t.Errorf("%s: scanned record lengths %v, err %v, want the one of %d bytes", wr.name, got, err, most)
		}
	}
}

func TestPageIteratorsCoverAllPagesDisjointly(t *testing.T) {
	bp := newPool(t, 1<<20)
	s := mkSet(t, bp, "s", 512)
	w := NewSeqWriter(s)
	for i := 0; i < 300; i++ {
		if err := w.Add([]byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	_ = w.Close()
	total := s.NumPages()
	for _, nThreads := range []int{1, 3, 7} {
		iters := PageIteratorsFor(s, s.PageNums(), nThreads)
		seen := make(map[int64]int)
		for _, it := range iters {
			for {
				p, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if p == nil {
					break
				}
				seen[p.Num()]++
				_ = it.Release(p)
			}
		}
		if int64(len(seen)) != total {
			t.Errorf("n=%d: covered %d pages, want %d", nThreads, len(seen), total)
		}
		for num, c := range seen {
			if c != 1 {
				t.Errorf("n=%d: page %d visited %d times", nThreads, num, c)
			}
		}
	}
}

// goid returns the calling goroutine's id, off its stack header
// ("goroutine 18 [running]:").
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestForEachPageCallerIsThreadZero pins ForEachPage's contract at one and at
// three threads: thread 0 runs on the calling goroutine and thread t's calls
// all come from one goroutine of its own; an error from whichever thread is
// the one returned, and the worker that hit it stops the shared cursor; and
// however the scan ends, no page stays pinned (the set drops) and the set's
// current operation is back to none.
func TestForEachPageCallerIsThreadZero(t *testing.T) {
	boom := errors.New("boom")
	for _, threads := range []int{1, 3} {
		for failer := -1; failer < threads; failer++ { // -1: nothing fails
			t.Run(fmt.Sprintf("threads=%d/failer=%d", threads, failer), func(t *testing.T) {
				bp := newPool(t, 1<<20)
				s := mkSet(t, bp, "s", 512)
				w := NewSeqWriter(s)
				for i := 0; i < 400; i++ {
					if err := w.Add([]byte("0123456789")); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				caller := goid()
				var mu sync.Mutex
				gids := make([]map[string]bool, threads)
				visited := 0
				// Every thread holds a page before any goes on, so each one
				// runs and the error comes from the thread the failer names.
				var holding sync.WaitGroup
				holding.Add(threads)
				err := ForEachPage(s, s.PageNums(), threads, func(th int, _ int64, _ []byte) error {
					mu.Lock()
					first := gids[th] == nil
					if first {
						gids[th] = map[string]bool{}
					}
					gids[th][goid()] = true
					visited++
					mu.Unlock()
					if first {
						holding.Done()
						holding.Wait()
					}
					if th == failer {
						return boom
					}
					return nil
				})
				switch {
				case failer < 0 && (err != nil || int64(visited) != s.NumPages()):
					t.Errorf("clean scan: err %v, visited %d of %d pages", err, visited, s.NumPages())
				case failer >= 0 && err != boom:
					t.Errorf("scan whose thread %d failed returned %v", failer, err)
				}
				if !gids[0][caller] || len(gids[0]) != 1 {
					t.Errorf("thread 0 ran on goroutines %v, want only the caller's %s", gids[0], caller)
				}
				for th := 1; th < threads; th++ {
					if len(gids[th]) > 1 || gids[th][caller] {
						t.Errorf("thread %d ran on goroutines %v (caller %s), want one of its own", th, gids[th], caller)
					}
				}
				if op := s.Attrs().CurrentOp; op != core.OpNone {
					t.Errorf("current operation %v after the scan, want none", op)
				}
				if err := bp.DropSet(s); err != nil {
					t.Errorf("a page stayed pinned: %v", err)
				}
			})
		}
	}
	// The stop itself, without the scheduler in the way: a worker that hits
	// an error leaves nothing for the other workers to claim.
	bp := newPool(t, 1<<20)
	s := mkSet(t, bp, "s", 512)
	if err := WriteAll(s, [][]byte{make([]byte, 300), make([]byte, 300), make([]byte, 300)}); err != nil {
		t.Fatal(err)
	}
	c := newScanCursor(s, s.PageNums())
	if err := c.work(1, func(int, int64, []byte) error { return boom }); err != boom || c.next != len(c.nums) {
		t.Errorf("failing worker returned %v with %d of %d pages claimed, want boom and all", err, c.next, len(c.nums))
	}
	if err := c.work(0, func(int, int64, []byte) error { t.Error("a page was handed out after the stop"); return nil }); err != nil {
		t.Error(err)
	}
}

func TestShuffleConcurrentWritersOnePartition(t *testing.T) {
	bp := newPool(t, 4<<20)
	sh, err := NewShuffle(bp, "shuf", 4, 256<<10, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const perWriter = 1000
	var wg sync.WaitGroup
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			bufs := sh.Writer()
			for i := 0; i < perWriter; i++ {
				rec := []byte(fmt.Sprintf("w%d-%06d", wtr, i))
				part := int(fnv1a(rec) % 4)
				if err := bufs[part].Add(rec); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
			if err := CloseWriters(bufs); err != nil {
				t.Errorf("close: %v", err)
			}
		}(wtr)
	}
	wg.Wait()
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	// Attribute inference: shuffle stamps concurrent-write.
	if a := sh.Sink(0).Set().Attrs(); a.Writing != core.ConcurrentWrite {
		t.Errorf("Writing = %v, want concurrent-write", a.Writing)
	}
	// Every record must land in exactly the partition its hash names. A
	// two-thread read calls back from two goroutines: the count is atomic.
	var total atomic.Int64
	for p := 0; p < 4; p++ {
		if err := sh.ReadPartition(p, 2, func(rec []byte) error {
			if int(fnv1a(rec)%4) != p {
				t.Errorf("record %q found in wrong partition %d", rec, p)
			}
			total.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := total.Load(); got != writers*perWriter {
		t.Errorf("read %d records, want %d", got, writers*perWriter)
	}
}

func TestShuffleSpillsWithOneFilePerPartition(t *testing.T) {
	// Shuffle data exceeding memory produces at most numPartitions spill
	// files (one locality set per partition), not numCores×numPartitions.
	bp := newPool(t, 256<<10)
	sh, err := NewShuffle(bp, "s", 2, 32<<10, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	bufs := sh.Writer()
	rec := make([]byte, 100)
	for i := 0; i < 20000; i++ {
		binary.LittleEndian.PutUint64(rec, uint64(i))
		if err := bufs[i%2].Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	_ = CloseWriters(bufs)
	_ = sh.Close()
	if bp.Stats().Spills.Load() == 0 {
		t.Fatal("expected shuffle spills")
	}
	var count int
	for p := 0; p < 2; p++ {
		if err := sh.ReadPartition(p, 1, func([]byte) error { count++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if count != 20000 {
		t.Errorf("read back %d records, want 20000", count)
	}
}

func TestHashBufferAggregatesInMemory(t *testing.T) {
	bp := newPool(t, 4<<20)
	s := mkSet(t, bp, "agg", 64<<10)
	h, err := NewInt64HashBuffer(s, 4, Sum)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9000; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i%300))
		if err := h.Upsert(key, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Attribute inference: hash service stamps random patterns.
	if a := s.Attrs(); a.Writing != core.RandomMutableWrite || a.Reading != core.RandomRead {
		t.Errorf("attrs = %+v, want random-mutable-write/random-read", a)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 300 {
		t.Fatalf("distinct keys = %d, want 300", len(got))
	}
	for k, v := range got {
		if v != 30 {
			t.Errorf("%s = %d, want 30", k, v)
		}
	}
}

func TestHashBufferSpillsAndReAggregates(t *testing.T) {
	// Many distinct keys force page splits and spills; Result must merge
	// partial aggregates from spilled pages.
	bp := newPool(t, 256<<10)
	s := mkSet(t, bp, "agg", 16<<10)
	h, err := NewInt64HashBuffer(s, 2, Sum)
	if err != nil {
		t.Fatal(err)
	}
	const distinct = 8000
	for round := 0; round < 2; round++ {
		for i := 0; i < distinct; i++ {
			if err := h.Upsert([]byte(fmt.Sprintf("k%06d", i)), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if bp.Stats().Spills.Load() == 0 {
		t.Fatal("expected hash pages to spill")
	}
	got, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != distinct {
		t.Fatalf("distinct keys = %d, want %d", len(got), distinct)
	}
	for k, v := range got {
		if v != 2 {
			t.Fatalf("%s = %d, want 2", k, v)
		}
	}
}

func TestHashBufferFindActivePage(t *testing.T) {
	bp := newPool(t, 1<<20)
	s := mkSet(t, bp, "f", 32<<10)
	h, _ := NewInt64HashBuffer(s, 1, Sum)
	_ = h.Upsert([]byte("a"), 7)
	_ = h.Upsert([]byte("a"), 5)
	if v, ok := h.Find([]byte("a")); !ok || v != 12 {
		t.Errorf("Find(a) = %d,%v want 12,true", v, ok)
	}
	if _, ok := h.Find([]byte("missing")); ok {
		t.Error("Find(missing) should be false")
	}
	_ = h.Close()
}

func TestHashBufferPropertySumMatchesMap(t *testing.T) {
	bp := newPool(t, 4<<20)
	idx := 0
	f := func(keys []uint8, vals []int16) bool {
		idx++
		s := mkSet(t, bp, fmt.Sprintf("prop-%d", idx), 32<<10)
		h, err := NewInt64HashBuffer(s, 3, Sum)
		if err != nil {
			return false
		}
		want := make(map[string]int64)
		for i, k := range keys {
			v := int64(1)
			if i < len(vals) {
				v = int64(vals[i])
			}
			key := fmt.Sprintf("k%d", k)
			want[key] += v
			if err := h.Upsert([]byte(key), v); err != nil {
				return false
			}
		}
		if err := h.Close(); err != nil {
			return false
		}
		got, err := h.Result()
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		_ = bp.DropSet(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// probeAll returns the payloads stored under key, through the two-step
// probe: walk the key's records, then gather them.
func probeAll(t *testing.T, m *JoinMap, key uint64) [][]byte {
	t.Helper()
	var recs []int32
	for r := m.Head(key); r >= 0; r = m.Next(r) {
		recs = append(recs, r)
	}
	flat, err := m.Gather(recs, nil, &GatherScratch{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(recs))
	for i := range out {
		out[i] = flat[i*m.Width() : (i+1)*m.Width()]
	}
	return out
}

func TestJoinMapProbe(t *testing.T) {
	bp := newPool(t, 1<<20)
	s := mkSet(t, bp, "jm", 4096)
	m, err := NewJoinMap(s, len("payload-000"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := m.Insert(uint64(i%20), []byte(fmt.Sprintf("payload-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Seal(); err != nil {
		t.Fatal(err)
	}
	if m.Keys() != 20 || m.Len() != 200 {
		t.Errorf("Keys=%d Len=%d, want 20, 200", m.Keys(), m.Len())
	}
	hits := probeAll(t, m, 3)
	for _, payload := range hits {
		var i int
		if _, err := fmt.Sscanf(string(payload), "payload-%d", &i); err != nil {
			t.Fatal(err)
		}
		if i%20 != 3 {
			t.Errorf("payload %q under wrong key", payload)
		}
	}
	if len(hits) != 10 {
		t.Errorf("hits = %d, want 10", len(hits))
	}
	if m.Head(20) >= 0 {
		t.Error("probe of absent key must find no record")
	}
}

// TestJoinMapGatherAfterSpill: a build side eight times the pool spills as
// it is written; gathering records scattered over all of it returns each
// one's payload, in the order asked, pinning every page touched once.
func TestJoinMapGatherAfterSpill(t *testing.T) {
	bp := newPool(t, 64<<10)
	s := mkSet(t, bp, "jm", 8<<10)
	m, err := NewJoinMap(s, 128)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 128)
	for i := 0; i < 4000; i++ {
		binary.LittleEndian.PutUint64(payload, uint64(i))
		if err := m.Insert(uint64(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Seal(); err != nil {
		t.Fatal(err)
	}
	if bp.Stats().Spills.Load() == 0 {
		t.Fatal("expected join map pages to spill")
	}
	for _, i := range []int{0, 517, 3999} {
		hits := probeAll(t, m, uint64(i))
		if len(hits) != 1 || binary.LittleEndian.Uint64(hits[0]) != uint64(i) {
			t.Errorf("probe %d: %d hits", i, len(hits))
		}
	}
	// One gather over records scattered across every page: consecutive lanes
	// live on different pages, so only visiting them in page order keeps the
	// loads of this 8-frame pool down to one a page.
	var recs []int32
	var want []uint64
	for k := 0; k < 1000; k++ {
		i := k * 617 % 4000
		recs = append(recs, m.Head(uint64(i)))
		want = append(want, uint64(i))
	}
	loads := bp.Stats().Loads.Load()
	flat, err := m.Gather(recs, nil, &GatherScratch{})
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range want {
		if got := binary.LittleEndian.Uint64(flat[k*128:]); got != i {
			t.Fatalf("gathered lane %d holds record %d, want %d", k, got, i)
		}
	}
	if loads = bp.Stats().Loads.Load() - loads; loads > s.NumPages() {
		t.Errorf("gather of %d records loaded %d pages of %d; want each at most once", len(recs), loads, s.NumPages())
	}
}

func TestFnv1aDistribution(t *testing.T) {
	buckets := make([]int, 8)
	for i := 0; i < 8000; i++ {
		buckets[fnv1a([]byte(fmt.Sprintf("key-%d", i)))%8]++
	}
	for b, c := range buckets {
		if c < 700 || c > 1300 {
			t.Errorf("bucket %d has %d keys; hash badly skewed", b, c)
		}
	}
}

// TestJoinMapMatchesMapReference holds the flat key index to a Go map:
// random words and words from a small domain (key 0, which an empty slot
// reads as, among them), each inserted many times, so filter bits and probe
// runs collide, through enough growth to double the key table seven times;
// every key's Head/Next chain, every gathered payload and every absent-key
// probe must agree with the reference.
func TestJoinMapMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	bp := newPool(t, 8<<20)
	m, err := NewJoinMap(mkSet(t, bp, "jmref", 4096), 8)
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{0}
	for i := 0; i < 3000; i++ {
		keys = append(keys, rng.Uint64(), uint64(rng.IntN(2000)))
	}
	ref := map[uint64][]int32{}
	payload := func(rec int32) uint64 { return uint64(rec)*2654435761 + 7 }
	for rec := int32(0); rec < 30000; rec++ {
		k := keys[rng.IntN(len(keys))]
		if err := m.Insert(k, binary.LittleEndian.AppendUint64(nil, payload(rec))); err != nil {
			t.Fatal(err)
		}
		ref[k] = append(ref[k], rec)
	}
	if err := m.Seal(); err != nil {
		t.Fatal(err)
	}
	if m.Keys() != len(ref) || m.Len() != 30000 {
		t.Fatalf("Keys=%d Len=%d, want %d, 30000", m.Keys(), m.Len(), len(ref))
	}
	if len(m.words) < 1<<(minSlotsLog+7) || 2*m.wordN > len(m.words) {
		t.Fatalf("%d slots for %d keys: the table did not grow as meant", len(m.words), m.wordN)
	}
	var gs GatherScratch
	for k, want := range ref {
		var chain []int32
		for r := m.Head(k); r >= 0; r = m.Next(r) {
			chain = append(chain, r)
		}
		if len(chain) != len(want) {
			t.Fatalf("key %#x: chain of %d records, want %d", k, len(chain), len(want))
		}
		for i, r := range chain {
			if w := want[len(want)-1-i]; r != w {
				t.Fatalf("key %#x: chain[%d] = %d, want %d (newest first)", k, i, r, w)
			}
		}
		got, err := m.Gather(chain, nil, &gs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range chain {
			if v := binary.LittleEndian.Uint64(got[i*8:]); v != payload(r) {
				t.Fatalf("key %#x: record %d gathered payload %d, want %d", k, r, v, payload(r))
			}
		}
	}
	for i := 0; i < 20000; i++ {
		var k uint64
		switch i % 3 {
		case 0:
			k = uint64(rng.IntN(2500))
		case 1:
			k = rng.Uint64()
		case 2: // a present random word with one bit flipped
			k = keys[2*rng.IntN(len(keys)/2)+1] ^ 1<<rng.IntN(64)
		}
		if _, in := ref[k]; !in && m.Head(k) >= 0 {
			t.Fatalf("absent key %#x found record %d", k, m.Head(k))
		}
	}
}
