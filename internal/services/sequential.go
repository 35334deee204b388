package services

import (
	"sync"

	"pangea/internal/core"
)

// SeqWriter is the sequential write service (§8): a sequential allocator
// that carves record space from the current page of a locality set and pins
// a fresh page when the current one fills — a RecordWriter over the set's own
// pages, in the set's layout, so every row-API producer (WriteAll, the
// cluster's AddRecords) writes whichever layout the set was created with.
// One SeqWriter per thread; each thread writes to its own page, as the paper
// prescribes.
//
// Attaching a SeqWriter stamps WritingPattern=sequential-write and
// CurrentOperation=write on the set (§3.2).
type SeqWriter struct {
	*RecordWriter
	set *core.LocalitySet

	pages setPages  // the RecordWriter's page source
	sides sideFolds // the side indexes attached to the writer
	idx   *indexer  // started at the first page sealed with an index attached; nil after Close
}

// setPages is a SeqWriter's page source: the set's own NewPage and Unpin.
// A writer with side indexes attached hands each sealed page to its indexer
// instead of unpinning it; one without keeps the unpin inline.
type setPages struct {
	w *SeqWriter
	p *core.Page
}

func (s *setPages) NewPage() ([]byte, error) {
	p, err := s.w.set.NewPage()
	if err != nil {
		return nil, err
	}
	s.p = p
	return p.Bytes(), nil
}

func (s *setPages) Release() error {
	p, w := s.p, s.w
	s.p = nil
	if len(w.sides.xs) == 0 {
		return w.set.Unpin(p, true)
	}
	if w.idx == nil {
		w.idx = startIndexer(w.set, &w.sides)
	}
	return w.idx.hand(p)
}

// NewSeqWriter attaches a sequential allocator to the set.
func NewSeqWriter(set *core.LocalitySet) *SeqWriter {
	set.SetWriting(core.SequentialWrite)
	set.SetCurrentOp(core.OpWrite)
	w := &SeqWriter{set: set}
	w.pages.w = w
	w.RecordWriter = NewRecordWriter(set, &w.pages)
	return w
}

// Close seals the current page — compacted to its records and shrunk to
// them, before any side index folds it — and releases it, waits for the
// indexer to fold and unpin every page handed to it, seals the side
// indexes and clears the set's current operation. It returns the first
// error of the release, or of any unpin the indexer made.
func (w *SeqWriter) Close() error {
	if w.page != nil {
		// The pages rolled over before this one are full and keep their size.
		w.set.Shrink(w.pages.p, int64(w.compact()))
	}
	err := w.RecordWriter.Close()
	if w.idx != nil {
		if xerr := w.idx.stop(); err == nil {
			err = xerr
		}
		w.idx = nil
	}
	w.sides.seal()
	w.set.SetCurrentOp(core.OpNone)
	return err
}

// indexer is the goroutine a SeqWriter with side indexes attached hands its
// sealed, still-pinned pages to: it folds each into the indexes, in page
// order, then unpins it, so the folds overlap the writer filling its next
// page. The hand-off has one slot, so a writer holds at most three pages
// pinned: the open one, one waiting and one being folded.
type indexer struct {
	set   *core.LocalitySet
	sides *sideFolds
	pages chan *core.Page
	done  chan struct{} // closed when run returns

	mu  sync.Mutex
	err error // the first Unpin error
}

func startIndexer(set *core.LocalitySet, sides *sideFolds) *indexer {
	x := &indexer{set: set, sides: sides, pages: make(chan *core.Page, 1), done: make(chan struct{})}
	go x.run()
	return x
}

// run folds and unpins every page handed to it until stop closes the
// hand-off. An Unpin error (a write-through set's flush) is kept, and the
// pages after it are still folded and unpinned.
func (x *indexer) run() {
	defer close(x.done)
	for p := range x.pages {
		x.sides.note(p.Num(), p.Bytes())
		if err := x.set.Unpin(p, true); err != nil {
			x.mu.Lock()
			if x.err == nil {
				x.err = err
			}
			x.mu.Unlock()
		}
	}
}

// hand queues a sealed page, waiting while the slot is full, and returns the
// first Unpin error the indexer has kept so far, so a failed flush surfaces
// from a later Add as well as from Close.
func (x *indexer) hand(p *core.Page) error {
	x.pages <- p
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.err
}

// stop waits until every handed page is folded and unpinned and returns the
// first Unpin error.
func (x *indexer) stop() error {
	close(x.pages)
	<-x.done
	return x.err
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
