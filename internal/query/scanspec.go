package query

import (
	"fmt"

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

// ScanSpec is the unified scan entry point: one declarative description —
// which set, how many worker threads, what predicate — that drives the row
// path (Run/Iter) and the batch path (RunBatches and friends) identically.
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
// widths for columnar sets (row sets need an explicit Schema only when Pred
// is non-nil).
type ScanSpec struct {
	Set     *core.LocalitySet
	Threads int
	// Pred filters rows declaratively; nil keeps every row.
	Pred Predicate
	// Schema describes the record layout Pred's column indices address.
	// Optional for columnar sets (the set knows its widths); required for
	// row sets when Pred is non-nil.
	Schema []services.ColumnSpec
	Hint   ScanHint
}

func (sp ScanSpec) threads() int {
	if sp.Threads < 1 {
		return 1
	}
	return sp.Threads
}

// schema resolves the record layout Pred compiles against.
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

// compile validates the predicate against the schema and returns its row
// closure (nil when there is no predicate).
func (sp ScanSpec) compile() (func(Row) bool, error) {
	if sp.Pred == nil {
		return nil, nil
	}
	schema, err := sp.schema()
	if err != nil {
		return nil, err
	}
	return sp.Pred.compileRow(schema)
}

// pages runs the pruning passes and returns the page list the scan will
// visit. With a predicate and pruning allowed, the set's microindex (if
// attached and covering — its answers are authoritative, so a stale index
// is never consulted) first narrows the list to the predicate's explicit
// candidate pages, then the zone map drops candidates whose summaries
// exclude a match. Surviving pages are the scan's demand reads and — because
// the scan's cursor hints only from its own list — the only pages it reads
// ahead, so concurrent predicate scans of one set cannot mask each other.
// Pages evaluated against the index count toward the set's IndexChecks and
// kept candidates toward IndexHits; pages evaluated against the zone map
// count toward ZoneMapChecks, pruned ones toward ZoneMapSkips.
func (sp ScanSpec) pages() []int64 {
	all := sp.Set.PageNums()
	if sp.Pred == nil || sp.Hint == HintNoPrune {
		return all
	}
	kept := all
	if sp.Hint != HintNoIndex {
		if idx, ok := sp.Set.SideIndex(services.MicroindexTag).(PointIndex); ok && idx.Covers(int64(len(all))) {
			if cand, answered := sp.Pred.indexPages(idx); answered {
				kept = cand
				sp.Set.NoteMicroindex(int64(len(all)), int64(len(cand)))
			}
		}
	}
	if stats, ok := sp.Set.SideIndex(services.ZoneMapTag).(PruneStats); ok {
		pruned := make([]int64, 0, len(kept))
		for _, num := range kept {
			if !sp.Pred.prune(stats, num) {
				pruned = append(pruned, num)
			}
		}
		sp.Set.NoteZoneMap(int64(len(kept)), int64(len(kept)-len(pruned)))
		kept = pruned
	}
	return kept
}

// Run streams every matching row to fn (Table 2: Scan), which may be called
// from Threads goroutines (one per page iterator; which pages a thread gets
// is decided as the scan runs, but thread t's calls all come from one
// goroutine), so stateful sinks lock or keep per-thread state indexed by
// thread. Rows alias pinned pages and are invalid after fn returns.
//
// Scanning declares a sequential reading pattern on the set, so on a cold
// set the scan's cursor reads ahead through the buffer pool's per-drive
// prefetch queues: the whole operator pipeline runs over a pinned page
// while the drives load the pages behind it, instead of stalling on one
// synchronous read per page.
func (sp ScanSpec) Run(fn func(thread int, row Row) error) error {
	match, err := sp.compile()
	if err != nil {
		return err
	}
	nums := sp.pages()
	if match == nil {
		return services.ScanPages(sp.Set, nums, sp.threads(), fn)
	}
	return services.ScanPages(sp.Set, nums, sp.threads(), func(t int, rec []byte) error {
		if !match(rec) {
			return nil
		}
		return fn(t, rec)
	})
}

// Iter adapts the scan to the push-based operator pipeline, predicate
// already applied.
func (sp ScanSpec) Iter() Iter {
	return func(emit func(Row) error) error {
		return sp.Run(func(_ int, r Row) error { return emit(r) })
	}
}

// RunBatches streams a columnar set batch-at-a-time; each batch arrives
// with its selection already narrowed to the predicate's matches (pages the
// zone map pruned never arrive at all).
func (sp ScanSpec) RunBatches(fn func(thread int, b *Batch) error) error {
	// compileRow doubles as predicate-vs-schema validation for the batch
	// path; the closure itself is unused here.
	if _, err := sp.compile(); err != nil {
		return err
	}
	nums := sp.pages()
	if sp.Pred == nil {
		return scanBatchesOver(sp.Set, nums, sp.threads(), fn)
	}
	return scanBatchesOver(sp.Set, nums, sp.threads(), func(t int, b *Batch) error {
		if err := sp.Pred.applyBatch(b); err != nil {
			return err
		}
		return fn(t, b)
	})
}

// AggBatches runs the scan-filter-aggregate pipeline under the spec's
// predicate: filter (nil allowed) further narrows each batch after the
// predicate — the residual for shapes the algebra doesn't express — and
// spec folds the survivors into one merged result map.
func (sp ScanSpec) AggBatches(filter func(*Batch), spec BatchAggSpec) (map[string][]byte, error) {
	n := sp.threads()
	maps := make([]map[string][]byte, n)
	keys := make([][]byte, n)
	err := sp.RunBatches(func(t int, b *Batch) error {
		if filter != nil {
			filter(b)
		}
		if maps[t] == nil {
			maps[t] = make(map[string][]byte)
		}
		keys[t] = AggBatch(b, spec, maps[t], keys[t])
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte)
	for _, m := range maps {
		for k, v := range m {
			if old, ok := out[k]; ok {
				spec.Combine(old, v)
			} else {
				out[k] = v
			}
		}
	}
	return out, nil
}

// CountBatches counts the rows the predicate (and optional residual filter)
// keeps.
func (sp ScanSpec) CountBatches(filter func(*Batch)) (int64, error) {
	counts := make([]int64, sp.threads())
	err := sp.RunBatches(func(t int, b *Batch) error {
		if filter != nil {
			filter(b)
		}
		counts[t] += int64(b.Selected())
		return nil
	})
	var total int64
	for _, c := range counts {
		total += c
	}
	return total, err
}
