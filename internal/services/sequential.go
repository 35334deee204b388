package services

import (
	"sync"

	"pangea/internal/core"
)

// SeqWriter is the sequential write service (§8): a sequential allocator
// that carves record space from the current page of a locality set and pins
// a fresh page when the current one fills. One SeqWriter per thread; each
// thread writes to its own page, as the paper prescribes.
//
// Attaching a SeqWriter stamps WritingPattern=sequential-write and
// CurrentOperation=write on the set (§3.2).
type SeqWriter struct {
	set  *core.LocalitySet
	page *core.Page
	off  int
	end  int
	n    int64 // records written

	// cw handles sets declared LayoutColumnar: Add transposes into column
	// segments instead of framing records, so every row-API producer
	// (WriteAll, the cluster data proxy) writes whichever layout the set
	// was created with.
	cw *ColumnarWriter

	// OnAppend, when set, is called after each record lands in a row page,
	// with the page's number and the record bytes — the row-path append
	// hook zone maps fold per-page summaries through, the counterpart of
	// ColumnarWriter.OnSeal. Not called for columnar sets (attach to the
	// seal hook instead; attachSideIndex wires whichever applies).
	OnAppend func(pageNum int64, rec []byte)

	// OnClose, when set, is called last by Close, for either layout — the
	// hook a microindex sorts what it folded at.
	OnClose func()
}

// chainHook composes fn after a writer hook already attached (OnAppend, or
// ColumnarWriter.OnSeal), so side objects that feed off one writer — a zone
// map and a microindex, beside a caller's own hook — compose instead of
// silently displacing each other.
func chainHook[A any](prev, fn func(pageNum int64, a A)) func(int64, A) {
	if prev == nil {
		return fn
	}
	return func(num int64, a A) {
		prev(num, a)
		fn(num, a)
	}
}

// NewSeqWriter attaches a sequential allocator to the set.
func NewSeqWriter(set *core.LocalitySet) *SeqWriter {
	set.SetWriting(core.SequentialWrite)
	set.SetCurrentOp(core.OpWrite)
	w := &SeqWriter{set: set}
	if set.Layout() == core.LayoutColumnar {
		w.cw = newColumnarWriter(set)
	}
	return w
}

// Add appends one record to the set.
func (w *SeqWriter) Add(rec []byte) error {
	if w.cw != nil {
		return w.cw.Add(rec)
	}
	if err := CheckRecordSize(len(rec), int(w.set.PageSize())-pageHeaderSize); err != nil {
		return err
	}
	for {
		if w.page == nil {
			p, err := w.set.NewPage()
			if err != nil {
				return err
			}
			initPage(p.Bytes(), int(w.set.PageSize())-pageHeaderSize)
			w.page, w.off, w.end = p, pageHeaderSize, int(w.set.PageSize())
		}
		next, ok := appendRecord(w.page.Bytes(), w.off, w.end, rec)
		if ok {
			w.off = next
			w.n++
			if w.OnAppend != nil {
				w.OnAppend(w.page.Num(), rec)
			}
			return nil
		}
		if err := w.set.Unpin(w.page, true); err != nil {
			return err
		}
		w.page = nil
	}
}

// Count returns the number of records written so far.
func (w *SeqWriter) Count() int64 {
	if w.cw != nil {
		return w.cw.Count()
	}
	return w.n
}

// Close releases the current page, clears the set's current operation and
// then runs the close hook.
func (w *SeqWriter) Close() error {
	if w.OnClose != nil {
		defer w.OnClose()
	}
	if w.cw != nil {
		return w.cw.Close()
	}
	var err error
	if w.page != nil {
		err = w.set.Unpin(w.page, true)
		w.page = nil
	}
	w.set.SetCurrentOp(core.OpNone)
	return err
}

// scanCursor is the state one scan's iterators share: the scan's page list,
// the index of the next unclaimed page, and the read-ahead window. It is the
// pool's only automatic source of read-ahead — Pin itself never speculates —
// so every hint is made against this scan's own list and frontier.
type scanCursor struct {
	set  *core.LocalitySet
	nums []int64 // in visiting order (core.LocalitySet.BeginScan)
	ra   int     // read-ahead window (pages), resolved once at construction
	once bool    // the set is read-once: Release retires the page

	mu   sync.Mutex
	next int // index into nums of the next unclaimed page: the frontier
}

// PageIterator hands one worker thread the pages of a scan. Obtain one per
// thread from PageIteratorsFor; the iterators of one scan share a cursor, so
// which thread gets which page is decided as the scan runs. Each Next pins a
// page that the caller must release with Release (or by unpinning directly).
type PageIterator struct {
	c *scanCursor
}

// PageIteratorsFor is the sequential read service's entry point (§8): it
// returns n concurrent iterators that together visit every listed page of
// the set exactly once, and stamps ReadingPattern=sequential-read,
// CurrentOperation=read on the set. The stamp makes the scan read ahead (see
// PoolConfig.ReadAhead): as its frontier advances it hints the pages that
// follow, so the drives read tomorrow's pages while the workers compute over
// today's — pin misses on a warm window become hits. The scan, and therefore
// every read-ahead hint it issues, covers only the listed pages: a predicate
// scan lists what its zone map did not prune, a full scan set.PageNums().
//
// Over a read-once set (core.Attributes.ReadOnce — a shuffle partition) the
// scan consumes what it reads: the cursor visits the pages resident at this
// call before the spilled ones, whatever their order in the list, and Release
// frees each page for good.
func PageIteratorsFor(set *core.LocalitySet, all []int64, n int) []*PageIterator {
	c := newScanCursor(set, all)
	iters := make([]*PageIterator, max(n, 1))
	for k := range iters {
		iters[k] = &PageIterator{c: c}
	}
	return iters
}

// newScanCursor starts a scan of the listed pages (core.LocalitySet.BeginScan).
func newScanCursor(set *core.LocalitySet, nums []int64) *scanCursor {
	c := &scanCursor{set: set}
	c.nums, c.ra, c.once = set.BeginScan(nums)
	return c
}

// Next claims the scan's next unclaimed page, pins and returns it, or
// returns nil once every page is claimed. Threads share the work rather than
// owning a stripe, so none can lag behind the window: before pinning, Next
// hints the ra pages that follow the scan's frontier — never a page off the
// list, and, because it hints under the lock it claims under, never a page
// another thread has already consumed (re-reading one would park a frame
// nobody will reference in the pool). The hints dedupe against resident and
// in-flight pages, so a warm window costs a few map lookups, while pages
// whose earlier hint was starved of memory get retried as the evictor frees
// frames up.
func (it *PageIterator) Next() (*core.Page, error) {
	c := it.c
	c.mu.Lock()
	i := c.next
	if i >= len(c.nums) {
		c.mu.Unlock()
		return nil, nil
	}
	c.next++
	if c.ra > 0 && c.next < len(c.nums) {
		c.set.Prefetch(c.nums[c.next:min(c.next+c.ra, len(c.nums))])
	}
	c.mu.Unlock()
	return c.set.Pin(c.nums[i])
}

// Release unpins a page returned by Next; a read-once set's page dies with
// it (core.LocalitySet.Retire).
func (it *PageIterator) Release(p *core.Page) error {
	if it.c.once {
		return it.c.set.Retire(p)
	}
	return it.c.set.Unpin(p, false)
}

// stop ends the scan early: every page not yet claimed stays unclaimed, so
// the scan's other threads finish the page they hold and then see the end.
func (c *scanCursor) stop() {
	c.mu.Lock()
	c.next = len(c.nums)
	c.mu.Unlock()
}

// ScanSet runs fn over every record of the set using numThreads concurrent
// page iterators — the long-living worker-thread model of Fig 2, where each
// worker pulls pinned pages in a loop rather than scheduling one task per
// block; the calling goroutine is worker 0 (see ForEachPage). Which pages a
// thread gets is decided as the scan runs (the workers share one cursor), but
// fn is only ever called with thread t from worker t's goroutine, so
// callbacks keep per-thread state indexed by thread.
func ScanSet(set *core.LocalitySet, numThreads int, fn func(thread int, rec []byte) error) error {
	return ForEachPage(set, set.PageNums(), numThreads, func(t int, _ int64, page []byte) error {
		return WalkPage(page, func(rec []byte) error { return fn(t, rec) })
	})
}

// ForEachPage is the one page loop under every scan — ScanSet's record walk
// and the query layer's batches alike: numThreads workers share one cursor
// over the listed pages (a predicate scan lists only what its side indexes
// kept), and fn sees each page's number and bytes while the page is pinned,
// in the cursor's order (a read-once set's resident pages go first). The caller's
// goroutine is worker 0 and only workers 1..numThreads-1 get goroutines of
// their own, so a one-thread scan costs no goroutine and no handoff. The
// first error — fn's, a pin's or an unpin's — stops the cursor, so the other
// workers finish the page they hold instead of walking to the end of the
// set, and is returned once they have; CurrentOperation is cleared on every
// exit, so a failed scan does not leave an idle set looking read to the
// paging policy.
func ForEachPage(set *core.LocalitySet, nums []int64, numThreads int, fn func(thread int, num int64, page []byte) error) error {
	c := newScanCursor(set, nums)
	defer set.SetCurrentOp(core.OpNone)
	errs := make([]error, max(numThreads, 1))
	var wg sync.WaitGroup
	for t := 1; t < len(errs); t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[t] = c.work(t, fn)
		}()
	}
	errs[0] = c.work(0, fn)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// work is one ForEachPage worker: it claims, pins, hands to fn and releases
// pages until the cursor runs out or something fails, and on failure stops
// the cursor for the other workers.
func (c *scanCursor) work(t int, fn func(thread int, num int64, page []byte) error) error {
	it := PageIterator{c: c}
	for {
		p, err := it.Next()
		if p == nil && err == nil {
			return nil
		}
		if err == nil {
			err = fn(t, p.Num(), p.Bytes())
			if uerr := it.Release(p); err == nil {
				err = uerr
			}
		}
		if err != nil {
			c.stop()
			return err
		}
	}
}

// WriteAll writes records to the set with a single sequential writer and
// closes it. A convenience wrapper used by examples and tests.
func WriteAll(set *core.LocalitySet, records [][]byte) error {
	w := NewSeqWriter(set)
	for _, r := range records {
		if err := w.Add(r); err != nil {
			_ = w.Close()
			return err
		}
	}
	return w.Close()
}
