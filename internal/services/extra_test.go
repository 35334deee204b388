package services

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"pangea/internal/core"
	"pangea/internal/disk"
)

// TestRecordFramingProperty: any sequence of records that fits round-trips
// through a page region in order.
func TestRecordFramingProperty(t *testing.T) {
	f := func(lens []uint8) bool {
		buf := make([]byte, 8192)
		initPage(buf, len(buf)-pageHeaderSize)
		var want [][]byte
		off := pageHeaderSize
		for i, ln := range lens {
			rec := bytes.Repeat([]byte{byte(i + 1)}, int(ln))
			next, ok := appendRecord(buf, off, len(buf), rec)
			if !ok {
				break
			}
			// Zero-length records terminate the region by construction, so
			// the framing cannot represent them mid-stream; writers in
			// Pangea never emit empty records.
			if ln == 0 {
				return true
			}
			want = append(want, rec)
			off = next
		}
		var got [][]byte
		if err := WalkPage(buf, func(rec []byte) error {
			got = append(got, append([]byte(nil), rec...))
			return nil
		}); err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWalkPageDetectsCorruptLength: a record header pointing past the
// region is an error, not a crash or silent truncation.
func TestWalkPageDetectsCorruptLength(t *testing.T) {
	buf := make([]byte, 256)
	initPage(buf, 256-pageHeaderSize)
	if _, ok := appendRecord(buf, pageHeaderSize, len(buf), []byte("x")); !ok {
		t.Fatal("append failed")
	}
	// Corrupt the length field.
	buf[pageHeaderSize] = 0xFF
	buf[pageHeaderSize+1] = 0xFF
	if err := WalkPage(buf, func([]byte) error { return nil }); err == nil {
		t.Error("corrupt record length must be reported")
	}
}

// TestShuffleSlowWriterHoldsPagePinned: a page is unpinned only after the
// slowest writer releases its small page, even when the allocator has long
// moved on to fresh pages.
func TestShuffleSlowWriterHoldsPagePinned(t *testing.T) {
	bp := newPool(t, 2<<20)
	set := mkSet(t, bp, "sh", 64<<10)
	sink, err := NewShuffleSink(set, 16<<10) // 4 regions per page: the split tiles it
	if err != nil {
		t.Fatal(err)
	}
	slow := NewVirtualShuffleBuffer(sink)
	if err := slow.Add([]byte("slow writer's first record")); err != nil {
		t.Fatal(err)
	}
	// Fast writers churn through several pages.
	fast := NewVirtualShuffleBuffer(sink)
	big := make([]byte, 15<<10)
	for i := 0; i < 12; i++ {
		if err := fast.Add(big); err != nil {
			t.Fatal(err)
		}
	}
	if err := fast.Close(); err != nil {
		t.Fatal(err)
	}
	// The slow writer still holds a region of the first page: that page
	// must be pinned (evictable set must exclude it).
	if set.NumPages() < 3 {
		t.Fatalf("expected several pages, got %d", set.NumPages())
	}
	if err := slow.Add([]byte("slow writer's second record")); err != nil {
		t.Fatalf("slow writer's region must remain writable: %v", err)
	}
	if err := slow.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything written must come back.
	var recs int
	if err := ScanSet(set, 1, func(_ int, rec []byte) error {
		recs++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if recs != 14 {
		t.Errorf("scanned %d records, want 14", recs)
	}
}

// TestShuffleSmallPagesTileThePage: a small-page size that divides the page
// size yields pageSize/smallSize small pages per page — the page header shrinks
// each one instead of displacing the last — and any other size keeps the whole
// regions that fit. Regions never overlap or run off the page.
func TestShuffleSmallPagesTileThePage(t *testing.T) {
	for _, tc := range []struct {
		pageSize   int64
		small      int
		wantRegion int
	}{
		{512 << 10, 64 << 10, 8},
		{DefaultSmallPageSize, 0, 1}, // the default on a page of exactly that size
		{64 << 10, 24 << 10, 2},      // does not divide: whole regions that fit
	} {
		bp := newPool(t, 4*tc.pageSize)
		sink, err := NewShuffleSink(mkSet(t, bp, "tile", tc.pageSize), tc.small)
		if err != nil {
			t.Fatalf("page %d, small %d: %v", tc.pageSize, tc.small, err)
		}
		var held []*shufflePage
		end := pageHeaderSize
		for sink.set.NumPages() < 2 {
			sp, off, err := sink.acquireRegion()
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, sp)
			if sink.set.NumPages() == 1 {
				if off < end || int64(off+sink.smallSize) > tc.pageSize {
					t.Errorf("page %d, small %d: region %d at [%d,%d) overlaps its neighbour or the page end",
						tc.pageSize, tc.small, len(held)-1, off, off+sink.smallSize)
				}
				end = off + sink.smallSize
			}
		}
		if got := len(held) - 1; got != tc.wantRegion {
			t.Errorf("page %d, small %d: %d regions handed out before a new page, want %d", tc.pageSize, tc.small, got, tc.wantRegion)
		}
		for _, sp := range held {
			if err := sink.releaseRegion(sp); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShuffleTiledPagesHoldTheirBytes: two writers' known records come back
// exactly once, in as many pages per partition as their framed bytes need
// (plus the writers' last, partly filled page), and a record that would fit the
// requested small-page size but not the effective one is refused cleanly.
func TestShuffleTiledPagesHoldTheirBytes(t *testing.T) {
	const (
		pageSize, small    = 64 << 10, 8 << 10
		writers, parts     = 2, 2
		perWriter, recSize = 4368, 100 // 56 full small pages per writer and partition
	)
	bp := newPool(t, 8<<20)
	sh, err := NewShuffle(bp, "tiled", parts, pageSize, small)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bufs := sh.Writer()
			rec := make([]byte, recSize)
			for i := 0; i < perWriter*parts; i++ {
				binary.LittleEndian.PutUint32(rec, uint32(w*perWriter*parts+i))
				if err := bufs[i%parts].Add(rec); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
			if err := bufs[0].Add(make([]byte, small-recHeaderSize)); err == nil {
				t.Errorf("a record of %d bytes fit a small page of %d", small-recHeaderSize, sh.Sink(0).smallSize)
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
	seen := make([]int, writers*perWriter*parts)
	for p := 0; p < parts; p++ {
		if err := sh.ReadPartition(p, 1, func(rec []byte) error {
			id := int(binary.LittleEndian.Uint32(rec))
			if id%parts != p {
				t.Errorf("record %d found in partition %d", id, p)
			}
			seen[id]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		framed := int64(writers * perWriter * (recHeaderSize + recSize))
		limit := (framed+pageSize-pageHeaderSize-1)/(pageSize-pageHeaderSize) + 1
		if got := sh.Sink(p).Set().NumPages(); got > limit {
			t.Errorf("partition %d takes %d pages for %d framed bytes, want at most %d", p, got, framed, limit)
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("record %d read back %d times, want once", id, n)
		}
	}
}

// TestHashBufferCustomCombiner: max-combining works through spills.
func TestHashBufferCustomCombiner(t *testing.T) {
	bp := newPool(t, 1<<20)
	set := mkSet(t, bp, "max", 32<<10)
	max := func(old, new int64) int64 {
		if new > old {
			return new
		}
		return old
	}
	h, err := NewInt64HashBuffer(set, 2, max)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		key := []byte(fmt.Sprintf("k%02d", i%50))
		if err := h.Upsert(key, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range res {
		var i int
		fmt.Sscanf(k, "k%d", &i)
		want := int64(2950 + i)
		if v != want {
			t.Errorf("%s = %d, want %d", k, v, want)
		}
	}
}

// TestVirtualHashBufferValueSizeEnforced: mismatched value widths are
// rejected up front.
func TestVirtualHashBufferValueSizeEnforced(t *testing.T) {
	bp := newPool(t, 1<<20)
	set := mkSet(t, bp, "vs", 32<<10)
	h, err := NewVirtualHashBuffer(set, 1, 16, func(dst, src []byte) { copy(dst, src) })
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Upsert([]byte("k"), make([]byte, 8)); err == nil {
		t.Error("wrong value size must be rejected")
	}
	if err := h.Upsert([]byte("k"), make([]byte, 16)); err != nil {
		t.Errorf("correct value size rejected: %v", err)
	}
	_ = h.Close()
}

func TestNewVirtualHashBufferValidation(t *testing.T) {
	bp := newPool(t, 1<<20)
	set := mkSet(t, bp, "bad", 32<<10)
	if _, err := NewVirtualHashBuffer(set, 0, 8, func(dst, src []byte) {}); err == nil {
		t.Error("zero partitions must be rejected")
	}
	if _, err := NewVirtualHashBuffer(set, 1, 0, func(dst, src []byte) {}); err == nil {
		t.Error("zero value size must be rejected")
	}
	if _, err := NewVirtualHashBuffer(set, 1, 8, nil); err == nil {
		t.Error("nil combiner must be rejected")
	}
}

// TestHashBufferRefusesTinyPage: a page that cannot hold the header, 16
// buckets and one entry is refused when the buffer is built, not by a panic
// on the first Slot.
func TestHashBufferRefusesTinyPage(t *testing.T) {
	bp := newPool(t, 1<<20)
	set := mkSet(t, bp, "tiny", 64)
	h, err := NewInt64HashBuffer(set, 1, Sum)
	if err == nil {
		_ = h.Upsert([]byte("k"), 1)
		t.Fatal("a 64-byte hash page was accepted")
	}
	// 12 header + 16·4 buckets + 16 for an entry of an 8-byte value.
	if msg := err.Error(); !strings.Contains(msg, "64 bytes") || !strings.Contains(msg, "92") {
		t.Errorf("error %q does not name the page size and the minimum", msg)
	}
}

// TestHashPageHoldsWhatFits: entries are appended at the page's cursor, so a
// page of P bytes and nb buckets holds ⌊(P − 12 − 4·nb)/24⌋ entries of an
// 8-byte key and an 8-byte value, and splits on the next. Walk returns each
// key once with its own count, so no two entries share bytes.
func TestHashPageHoldsWhatFits(t *testing.T) {
	for _, tc := range []struct{ pageSize, fit int }{
		{4 << 10, (4096 - 12 - 4*16) / 24},   // 167
		{16 << 10, (16384 - 12 - 4*64) / 24}, // 671
	} {
		pageSize, fit := tc.pageSize, tc.fit
		bp := newPool(t, 1<<20)
		set := mkSet(t, bp, "fit", int64(pageSize))
		h, err := NewInt64HashBuffer(set, 1, Sum)
		if err != nil {
			t.Fatal(err)
		}
		key := func(i int) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(i)) }
		for i := 0; i < fit; i++ {
			if err := h.Upsert(key(i), int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if n := set.NumPages(); n != 1 {
			t.Fatalf("%d-byte page: %d keys take %d pages, want 1", pageSize, fit, n)
		}
		if err := h.Upsert(key(fit), int64(fit)); err != nil {
			t.Fatal(err)
		}
		if n := set.NumPages(); n != 2 {
			t.Fatalf("%d-byte page: %d keys take %d pages, want 2", pageSize, fit+1, n)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		seen := make(map[uint64]bool)
		if err := h.h.Walk(func(k, v []byte) error {
			i := binary.LittleEndian.Uint64(k)
			if seen[i] || i > uint64(fit) || binary.LittleEndian.Uint64(v) != i {
				t.Errorf("%d-byte page: key %d walked with value %d (seen before: %v)", pageSize, i, binary.LittleEndian.Uint64(v), seen[i])
			}
			seen[i] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(seen) != fit+1 {
			t.Errorf("%d-byte page: Walk returned %d keys, want %d", pageSize, len(seen), fit+1)
		}
	}
}

// TestScanEmptySet: iterating a set with no pages completes immediately.
func TestScanEmptySet(t *testing.T) {
	bp := newPool(t, 1<<20)
	set := mkSet(t, bp, "empty", 4096)
	done := make(chan error, 1)
	go func() {
		done <- ScanSet(set, 3, func(int, []byte) error {
			t.Error("callback on empty set")
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scan of empty set hung")
	}
}

// TestScanStopsOnFirstError: when one thread's callback fails, the scan ends
// there — the sibling thread finishes the page it holds and finds the shared
// cursor stopped — and the set is not left stamped as being read. At the
// parent commit the sibling walked on to the end of the set (every page
// visited) and the stamp was cleared only on success, so DataAware went on
// treating an idle set as one being read.
func TestScanStopsOnFirstError(t *testing.T) {
	bp := newPool(t, 1<<20)
	set := mkSet(t, bp, "s", 4096)
	const pages = 64
	rec := make([]byte, 3000) // one record a page
	w := NewSeqWriter(set)
	for i := 0; i < pages; i++ {
		if err := w.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if set.NumPages() != pages {
		t.Fatalf("set has %d pages, want %d", set.NumPages(), pages)
	}
	boom := errors.New("boom")
	var visited atomic.Int64
	failed := make(chan struct{})
	err := ScanSet(set, 2, func(int, []byte) error {
		if visited.Add(1) == 1 {
			close(failed)
			return boom
		}
		// The sibling holds its first page until the failure is on its way
		// out, and takes any further page slowly: for this test to pass by
		// accident the failing thread would have to stall for 60 ms between
		// returning and stopping the cursor.
		<-failed
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("scan returned %v, want the callback's error", err)
	}
	if n := visited.Load(); n >= pages {
		t.Errorf("scan visited %d of %d pages after its first callback failed", n, pages)
	}
	if op := set.Attrs().CurrentOp; op != core.OpNone {
		t.Errorf("failed scan left CurrentOp=%v, want none", op)
	}
}

// TestJoinMapEmptyKeyAndPayload: degenerate shapes are stored faithfully —
// key 0, the value an empty slot reads as, is a key, and a width-0 map keeps
// keys and multiplicities without ever allocating a page.
func TestJoinMapEmptyKeyAndPayload(t *testing.T) {
	bp := newPool(t, 1<<20)
	set := mkSet(t, bp, "jm", 4096)
	m, err := NewJoinMap(set, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []uint64{0, 42, 42} {
		if err := m.Insert(key, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Insert(42, []byte("x")); err == nil {
		t.Error("a payload wider than the map's must be rejected")
	}
	if err := m.Seal(); err != nil {
		t.Fatal(err)
	}
	chain := func(key uint64) (n int) {
		for r := m.Head(key); r >= 0; r = m.Next(r) {
			n++
		}
		return n
	}
	if chain(0) != 1 || chain(42) != 2 || chain(43) != 0 {
		t.Errorf("chains: zero=%d key=%d absent=%d, want 1, 2, 0", chain(0), chain(42), chain(43))
	}
	if m.Keys() != 2 || m.Len() != 3 || set.NumPages() != 0 {
		t.Errorf("Keys=%d Len=%d pages=%d, want 2, 3, 0", m.Keys(), m.Len(), set.NumPages())
	}
	if out, err := m.Gather([]int32{0, 1, 2}, nil, &GatherScratch{}); err != nil || len(out) != 0 {
		t.Errorf("gather from a width-0 map: %d bytes, err %v", len(out), err)
	}
	if _, err := NewJoinMap(set, 8192); err == nil {
		t.Error("a payload wider than a page must be rejected")
	}
}

// TestSeqWriterInterleavedWithDifferentSets: two writers on different sets
// in one pool do not interfere.
func TestSeqWriterInterleavedWithDifferentSets(t *testing.T) {
	bp := newPool(t, 2<<20)
	a := mkSet(t, bp, "a", 8<<10)
	b := mkSet(t, bp, "b", 8<<10)
	wa, wb := NewSeqWriter(a), NewSeqWriter(b)
	for i := 0; i < 500; i++ {
		if err := wa.Add([]byte(fmt.Sprintf("a-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := wb.Add([]byte(fmt.Sprintf("b-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	_ = wa.Close()
	_ = wb.Close()
	for name, set := range map[string]*core.LocalitySet{"a": a, "b": b} {
		var n int
		if err := ScanSet(set, 1, func(_ int, rec []byte) error {
			if rec[0] != name[0] {
				t.Errorf("record %q in set %s", rec, name)
			}
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if n != 500 {
			t.Errorf("set %s has %d records", name, n)
		}
	}
}

// TestLoopingScanRetention scans a set four times its pool four times over on
// two threads — the looping sequential read §6 picks MRU eviction for. Every
// pass must see every record exactly once; what the scan's cursor reads ahead
// it then pins (nothing wasted, no never-referenced frame squatting in the
// pool when a pass returns); and from the second pass on, the pages MRU
// retained are hits, so a pass reads fewer pages than the set holds.
func TestLoopingScanRetention(t *testing.T) {
	const pageSize = 4 << 10
	const poolPages = 48
	const threads = 2
	arr, err := disk.NewArray(t.TempDir(), 2, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := core.NewPool(core.PoolConfig{Memory: poolPages * pageSize, Array: arr})
	if err != nil {
		t.Fatal(err)
	}
	s := mkSet(t, bp, "loop", pageSize)
	w := NewSeqWriter(s)
	rec := make([]byte, 100)
	n := 0
	for ; s.NumPages() <= 4*poolPages; n++ {
		binary.LittleEndian.PutUint32(rec, uint32(n))
		if err := w.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	pages := s.NumPages()
	reads := func() (total int64) {
		for _, ds := range arr.PerDriveStats() {
			total += ds.Reads
		}
		return total
	}

	st := bp.Stats()
	for pass := 1; pass <= 4; pass++ {
		before := reads()
		seen := make([][]uint8, threads)
		for i := range seen {
			seen[i] = make([]uint8, n)
		}
		err := ScanSet(s, threads, func(thread int, rec []byte) error {
			seen[thread][binary.LittleEndian.Uint32(rec)]++
			return nil
		})
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		for id := 0; id < n; id++ {
			if c := seen[0][id] + seen[1][id]; c != 1 {
				t.Fatalf("pass %d: record %d seen %d times", pass, id, c)
			}
		}
		if issued, used := st.PrefetchesIssued.Load(), st.PrefetchHits.Load()+st.PrefetchWasted.Load(); issued != used {
			t.Errorf("pass %d: %d of %d prefetched frames still unreferenced when the pass returned", pass, issued-used, issued)
		}
		if got := reads() - before; pass > 1 && got >= pages {
			t.Errorf("pass %d read %d pages of a %d-page set: nothing the previous pass left resident was a hit", pass, got, pages)
		}
	}
	if st.PrefetchesIssued.Load() == 0 {
		t.Error("the scans never read ahead")
	}
	if wasted, pins := st.PrefetchWasted.Load(), 4*pages; wasted*50 > pins {
		t.Errorf("PrefetchWasted = %d over %d pins, want at most 2%%", wasted, pins)
	}
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
}
