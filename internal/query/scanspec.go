package query

import (
	"fmt"
	"slices"
	"sync"

	"pangea/internal/core"
	"pangea/internal/services"
)

// ScanHint tunes how a ScanSpec executes.
type ScanHint int

const (
	// HintNone lets the scan use every optimization it can see.
	HintNone ScanHint = iota
	// HintNoPrune evaluates the predicate against every row but never
	// consults zone maps or microindexes — the baseline side of
	// page-skipping experiments, and an escape hatch if a summary is ever
	// suspected stale.
	HintNoPrune
	// HintNoIndex consults zone maps but never the microindex — the
	// zone-map-only side of point-lookup experiments, isolating what the
	// index adds over bloom pruning.
	HintNoIndex
)

// ScanSpec is the one scan entry point: a declarative description — which
// set, how many worker threads, what predicate — executed batch-at-a-time by
// RunBatches over either page layout; Run hands the selected rows of each
// batch out in record form, and AggBatches/CountBatches put a sink on
// the end.
//
// Because the predicate is algebraic rather than an opaque closure, the
// scan prunes before it reads: if the set carries a zone map (see
// services.AttachZoneMap / EnsureZoneMap), pages the predicate provably
// cannot match are dropped from the page list up front — never pinned,
// never read — and never in the scan's read-ahead window, so the drives only
// speculate on pages the scan will consume. On a selective scan of a
// clustered column that is most of the set; on an unselective one the
// prune pass costs a map lookup per page and changes nothing.
//
// The zero value of everything but Set is usable: Threads defaults to 1, a
// nil Pred scans every row, and Schema is derived from the set's column
// widths for columnar sets. A row set needs an explicit Schema when Pred is
// non-nil or the callback reads columns; without one its batches have no
// columns, only rows (Batch.MaterializeRow).
type ScanSpec struct {
	Set     *core.LocalitySet
	Threads int
	// Pred filters rows declaratively; nil keeps every row.
	Pred Predicate
	// Schema describes the record layout column indices address — Pred's,
	// and those of the batch a row page is presented as. Optional for
	// columnar sets (the set knows its widths).
	Schema []services.ColumnSpec
	Hint   ScanHint
}

// batchPool holds the scan threads' batches between scans (see RunBatches).
// reset re-derives everything a batch says about its page, so nothing one
// scan left in a batch is visible to the next.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

func (sp ScanSpec) threads() int {
	if sp.Threads < 1 {
		return 1
	}
	return sp.Threads
}

// schema resolves the record layout column indices address.
func (sp ScanSpec) schema() ([]services.ColumnSpec, error) {
	if sp.Schema != nil {
		return sp.Schema, nil
	}
	if widths := sp.Set.ColumnWidths(); widths != nil {
		specs := make([]services.ColumnSpec, len(widths))
		off := 0
		for i, w := range widths {
			specs[i] = services.ColumnSpec{Width: w, Offset: off}
			off += w
		}
		return specs, nil
	}
	if sp.Pred == nil {
		return nil, nil
	}
	return nil, fmt.Errorf("query: predicate scan over row set %q needs ScanSpec.Schema", sp.Set.Name())
}

// pages runs the pruning passes and returns the page list the scan will
// visit, and the microindex's answer (see PointIndex) when it gave one. With
// a predicate and pruning allowed, the set's microindex (if attached and
// covering — its answers are authoritative, so a stale index is never
// consulted) first narrows the list to the pages its answer names, then the
// zone map drops candidates whose summaries exclude a match. Surviving pages
// are the scan's demand reads and — because the scan's cursor hints only from
// its own list — the only pages it reads ahead, so concurrent predicate scans
// of one set cannot mask each other. Pages evaluated against the index count
// toward the set's IndexChecks and kept candidates toward IndexHits; pages
// evaluated against the zone map count toward ZoneMapChecks, pruned ones
// toward ZoneMapSkips (core.SetStats).
//
// The work is O(answer), not O(set): an index that answers never has the
// set's page list built beside it, and the zone-map pass filters the list in
// place — every list it sees is the scan's own (PageNums and pagesOf return
// fresh copies).
func (sp ScanSpec) pages() (nums []int64, locs []uint64) {
	if sp.Pred == nil || sp.Hint == HintNoPrune {
		return sp.Set.PageNums(), nil
	}
	answered := false
	if sp.Hint != HintNoIndex {
		n := sp.Set.NumPages()
		if idx, ok := sp.Set.SideIndex(services.MicroindexTag).(PointIndex); ok && idx.Covers(n) {
			if locs, answered = sp.Pred.indexPages(idx); answered {
				nums = pagesOf(locs)
				sp.Set.Stats().IndexChecks.Add(n)
				sp.Set.Stats().IndexHits.Add(int64(len(nums)))
			}
		}
	}
	if !answered {
		nums, locs = sp.Set.PageNums(), nil
	}
	if stats, ok := sp.Set.SideIndex(services.ZoneMapTag).(PruneStats); ok {
		checked := len(nums)
		nums = slices.DeleteFunc(nums, func(num int64) bool { return sp.Pred.prune(stats, num) })
		sp.Set.Stats().ZoneMapChecks.Add(int64(checked))
		sp.Set.Stats().ZoneMapSkips.Add(int64(checked - len(nums)))
	}
	return nums, locs
}

// pagesOf returns the distinct pages of an answer, ascending.
func pagesOf(locs []uint64) []int64 {
	var nums []int64
	for i, loc := range locs {
		if i == 0 || !samePage(locs[i-1], loc) {
			nums = append(nums, int64(loc>>32))
		}
	}
	return nums
}

// RunBatches streams the set batch-at-a-time, one batch per page, whichever
// layout the page has (see Batch); each batch arrives with its selection
// already narrowed to the predicate's matches, and pages the side indexes
// pruned never arrive at all. When the microindex answered, a page's
// selection starts from the lanes the answer names on it, so the predicate
// tests those rows alone: the index narrows, the predicate still decides. A
// record of a row page too short to hold every Schema column matches no
// predicate.
//
// fn may be called from Threads goroutines (which pages a thread gets is
// decided as the scan runs, but thread t's calls all come from one
// goroutine; thread 0's is the caller's), so stateful sinks keep per-thread
// state indexed by thread. Each thread reuses one Batch, page after page and
// — the batches come from a process-wide pool and go back when the scan ends
// — scan after scan, so the steady state allocates nothing page-sized: the
// selection, row-offset and gathered-column vectors are all reused. The
// batch, including any column slice taken from it, is invalid after fn
// returns, when the page is released.
//
// Scanning declares a sequential reading pattern on the set, so on a cold
// set the scan's cursor reads ahead through the buffer pool's per-drive
// prefetch queues: the whole operator pipeline runs over a pinned page
// while the drives load the pages behind it, instead of stalling on one
// synchronous read per page.
func (sp ScanSpec) RunBatches(fn func(thread int, b *Batch) error) error {
	schema, err := sp.schema()
	if err != nil {
		return err
	}
	if sp.Pred != nil {
		if err := sp.Pred.check(schema); err != nil {
			return err
		}
	}
	batches := make([]*Batch, sp.threads())
	for t := range batches {
		batches[t] = batchPool.Get().(*Batch)
	}
	defer func() {
		for _, b := range batches {
			batchPool.Put(b)
		}
	}()
	nums, locs := sp.pages()
	pred := sp.Pred
	return services.ForEachPage(sp.Set, nums, len(batches), func(t int, num int64, page []byte) error {
		b := batches[t]
		if err := b.reset(page, schema); err != nil {
			return err
		}
		if pred != nil {
			b.seedLanes(locs, num)
			b.dropShort()
			pred.applyBatch(b)
		}
		return fn(t, b)
	})
}

// Run streams every matching row to fn in record form (Table 2: Scan) — the
// row adapter over RunBatches, with its threading contract. Over RunBatches
// it costs one callback per selected row, plus on columnar pages the
// re-stitching of that row; rows of a row page are the stored records
// themselves. Rows alias the pinned page (or a per-thread scratch buffer)
// and are invalid after fn returns.
func (sp ScanSpec) Run(fn func(thread int, row Row) error) error {
	return sp.RunBatches(func(t int, b *Batch) error {
		return ProjectBatch(b, func(r Row) error { return fn(t, r) })
	})
}

// Stage is one step of a per-batch pipeline between a scan and its sink: it
// narrows b's selection in place (a residual filter, a semi or anti join)
// and returns b, or returns the batch that replaces it downstream (an inner
// join's output).
type Stage func(thread int, b *Batch) (*Batch, error)

// runStaged is RunBatches with stage (nil allowed) applied to each batch
// before fn sees it.
func (sp ScanSpec) runStaged(stage Stage, fn func(thread int, b *Batch) error) error {
	if stage == nil {
		return sp.RunBatches(fn)
	}
	return sp.RunBatches(func(t int, b *Batch) error {
		b, err := stage(t, b)
		if err != nil {
			return err
		}
		return fn(t, b)
	})
}

// AggBatches runs the scan → stage → hash-aggregate pipeline on one node:
// stage (nil allowed) runs on each batch after the predicate, and spec folds
// the survivors into per-thread partials held in hash-service pages of a
// temp set named tmp in bp, merged into one map when the scan ends.
// Executor.DistributedMerge combines the per-node maps.
func (sp ScanSpec) AggBatches(bp *core.BufferPool, tmp string, stage Stage, spec BatchAggSpec) (map[string][]byte, error) {
	a, err := newAgg(bp, tmp, sp.threads(), spec)
	if err != nil {
		return nil, err
	}
	err = sp.runStaged(stage, a.add)
	out, rerr := a.result()
	if err != nil {
		return nil, err
	}
	return out, rerr
}

// CountBatches counts the rows the predicate and stage (nil allowed) keep.
func (sp ScanSpec) CountBatches(stage Stage) (int64, error) {
	counts := make([]int64, sp.threads())
	err := sp.runStaged(stage, func(t int, b *Batch) error {
		counts[t] += int64(b.Selected())
		return nil
	})
	var total int64
	for _, c := range counts {
		total += c
	}
	return total, err
}
