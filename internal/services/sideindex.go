package services

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"pangea/internal/core"
	"pangea/internal/locking"
	"pangea/internal/pfs"
)

// A side index is per-set scan metadata kept beside the data pages: folded a
// sealed page at a time by the sequential writers it rides and by
// rebuilds, persisted as one pfs side object, registered on the set under the
// same tag so predicate scans find it, and healed by a full-scan rebuild when
// the persisted object is absent, torn or stale. That lifecycle is shared
// here; a kind (zone map, microindex) supplies a sideKind descriptor and a
// summarizer, and answers its own queries. Side indexes are valid only for
// append-once sets (the write pattern every Pangea set has today).

// sideKind describes one side-index kind to the shared lifecycle.
type sideKind struct {
	name    string // what error messages call it
	tag     string // pfs side-object name and LocalitySet side-index key
	magic   uint64 // first header word of the persisted object
	version uint64 // second header word: the kind's body format
	// foldAll folds every 1/2/4/8-byte column, not only the designated ones.
	foldAll bool
}

// summarizer is the kind-specific half of a side index, called with the
// skeleton's lock held.
type summarizer interface {
	// fold states folded column f of page num: vals holds the values of the
	// page's rows in lane order (see LaneAll: a row's location is its page
	// and lane), at least one. sum is the page's summary (nil for kinds that
	// keep none). A page folded again restates its rows.
	fold(sum []byte, num int64, f foldCol, vals []uint64)
	// seal puts in order whatever fold left unordered; lookups and Marshal
	// see only sealed state.
	seal()
	// appendBody encodes what the kind keeps beyond the page table;
	// decodeBody parses it off the front of data into a fresh index whose
	// page table is already loaded and returns the rest, bounding every
	// count against len(data) before use.
	appendBody(buf []byte) []byte
	decodeBody(data []byte) (rest []byte, err error)
}

// sidePage is one page's slot in the table. An invalid page (a record
// shorter than the schema, or a columnar page of another shape, was noted)
// keeps its slot so coverage still holds, but its summary is never trusted
// and it stops folding.
type sidePage struct {
	rows  int64
	valid bool
	sum   []byte // the kind's per-page summary, held in its persisted form
}

// foldCol is one column the summarizer folds, with its record geometry.
type foldCol struct{ col, slot, width, offset int }

// sideIndex is the shared skeleton ZoneMap and Microindex embed.
type sideIndex struct {
	kind    *sideKind
	sum     summarizer
	widths  []int
	offsets []int
	rowSize int   // bytes of record prefix the schema addresses
	cols    []int // designated columns, deduplicated, in persisted order
	colPos  map[int]int
	folded  []foldCol
	// blank is the fixed-size summary a fresh page starts from; a kind that
	// keeps per-page summaries sets it after init, before any page is noted.
	blank []byte

	mu      locking.RWMutex
	pages   map[int64]*sidePage
	covered int64     // pages 0..covered-1 all have slots; slots are never removed
	invalid []int64   // ascending pages with valid=false
	parse   pageParse // NotePage's scratch, reused page to page
}

// sideIndexer is a concrete kind: it embeds the skeleton.
type sideIndexer interface{ base() *sideIndex }

func (s *sideIndex) base() *sideIndex { return s }

// le is the byte order of every persisted side-object word and of the
// column values folded out of records.
var le = binary.LittleEndian

// summarizable reports whether a column of this width has a value domain a
// side index can fold (payload blobs and packed strings do not).
func summarizable(width int) bool {
	return width == 1 || width == 2 || width == 4 || width == 8
}

// readU reads a 1/2/4/8-byte little-endian column value.
func readU(b []byte, width int) uint64 {
	switch width {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(le.Uint16(b))
	case 4:
		return uint64(le.Uint32(b))
	default:
		return le.Uint64(b)
	}
}

// init validates the schema shape and the designated columns (in range,
// summarizable width; repeats collapse) and readies an empty index.
func (s *sideIndex) init(kind *sideKind, sum summarizer, schema []ColumnSpec, cols []int) error {
	if len(schema) == 0 {
		return fmt.Errorf("services: %s needs a schema", kind.name)
	}
	s.kind, s.sum = kind, sum
	s.widths = make([]int, len(schema))
	s.offsets = make([]int, len(schema))
	s.colPos = make(map[int]int)
	s.pages = make(map[int64]*sidePage)
	s.mu.Init(locking.RankSideIndex)
	for i, c := range schema {
		if c.Width <= 0 {
			return fmt.Errorf("services: %s column %d has width %d", kind.name, i, c.Width)
		}
		if c.Offset < 0 {
			return fmt.Errorf("services: %s column %d has offset %d", kind.name, i, c.Offset)
		}
		s.widths[i], s.offsets[i] = c.Width, c.Offset
		if end := c.Offset + c.Width; end > s.rowSize {
			s.rowSize = end
		}
	}
	for _, c := range cols {
		if c < 0 || c >= len(schema) {
			return fmt.Errorf("services: %s designates column %d, out of range [0,%d)", kind.name, c, len(schema))
		}
		if !summarizable(s.widths[c]) {
			return fmt.Errorf("services: %s designates column %d of width %d, want 1/2/4/8", kind.name, c, s.widths[c])
		}
		if _, dup := s.colPos[c]; !dup {
			s.colPos[c] = len(s.cols)
			s.cols = append(s.cols, c)
		}
	}
	for c, w := range s.widths {
		slot, designated := s.colPos[c]
		if !designated {
			slot = -1
		}
		if designated || (kind.foldAll && summarizable(w)) {
			s.folded = append(s.folded, foldCol{col: c, slot: slot, width: w, offset: s.offsets[c]})
		}
	}
	return nil
}

// sameShape reports whether two indexes were built for the same spec.
func (s *sideIndex) sameShape(o *sideIndex) bool {
	return slices.Equal(s.widths, o.widths) && slices.Equal(s.offsets, o.offsets) && slices.Equal(s.cols, o.cols)
}

// page returns, creating it if needed, the slot for page num, advancing the
// covered prefix past it and any later slots it joins up. Caller holds s.mu.
func (s *sideIndex) page(num int64) *sidePage {
	p := s.pages[num]
	if p == nil {
		p = &sidePage{valid: true, sum: append([]byte(nil), s.blank...)}
		s.pages[num] = p
		for s.pages[s.covered] != nil {
			s.covered++
		}
	}
	return p
}

// invalidate marks a page unparseable: it stays covered, but no summary of
// it is trusted. Caller holds s.mu.
func (s *sideIndex) invalidate(num int64, p *sidePage) {
	if !p.valid {
		return
	}
	p.valid = false
	i, _ := slices.BinarySearch(s.invalid, num)
	s.invalid = slices.Insert(s.invalid, i, num)
}

// notePage folds the first k of page num's n rows, reading each folded
// column's values through pp, and invalidates the page if a row is left out.
// A page with a row no location can name is invalidated before any row is
// folded. Caller holds s.mu.
func (s *sideIndex) notePage(num int64, n, k int, pp *pageParse) {
	p, ok := s.page(num), nameable(num, n)
	if ok && p.valid && k > 0 {
		for _, f := range s.folded {
			s.sum.fold(p.sum, num, f, pp.column(f, k))
		}
		p.rows = max(p.rows, int64(k))
	}
	if k < n || !ok {
		s.invalidate(num, p)
	}
}

// nameable reports whether a location can name each of page num's n lanes:
// its page number fits 32 bits, its lane 31 (the largest selection index).
func nameable(num int64, n int) bool {
	return num <= math.MaxUint32 && int64(n) <= math.MaxInt32+1
}

// NotePage folds one sealed page of either layout — rebuilds' path, and
// the path of an index no writer carries. Noting a page again restates its
// rows. On a row page, row i is the i-th record in RecordOffsets order, at
// lane i; a record shorter than the schema invalidates the page once the
// rows before it are folded, and a page with no records gets no slot. On a
// columnar page, row i's lane is i, and a page whose shape differs from the
// schema is invalidated. A page whose framing or header is corrupt is left
// as it was and is an error.
func (s *sideIndex) NotePage(num int64, page []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.parse.reset(page); err != nil {
		return err
	}
	s.fold(num, &s.parse)
	return nil
}

// fold folds page num, parsed as pp (see NotePage). Caller holds s.mu.
func (s *sideIndex) fold(num int64, pp *pageParse) {
	if pp.columnar {
		if !slices.Equal(pp.view.widths, s.widths) {
			s.invalidate(num, s.page(num))
			return
		}
		s.notePage(num, pp.view.NumRows(), pp.view.NumRows(), pp)
		return
	}
	offs := pp.offs
	if len(offs) == 0 {
		return
	}
	k := len(offs)
	if pp.minLen < s.rowSize {
		k = slices.IndexFunc(offs, func(off int32) bool { return RecordLen(pp.page, off) < s.rowSize })
	}
	s.notePage(num, len(offs), k, pp)
}

// pageParse is one sealed page read for folding: a row page's record
// offsets and shortest record, or a columnar page's view. Columns several
// indexes fold (shared) are read once a page and kept; any other column is
// read into one scratch vector, reused column to column.
type pageParse struct {
	page     []byte
	columnar bool
	view     ColumnarPage
	offs     []int32
	minLen   int
	vals     []uint64
	shared   []keptCol
}

// sameColumn reports whether two folded columns read the same values: the
// slot each index gives a column is its own.
func sameColumn(a, b foldCol) bool {
	return a.col == b.col && a.width == b.width && a.offset == b.offset
}

// keptCol is a shared column's values read from the current page: the first
// n rows, in lane order.
type keptCol struct {
	f    foldCol // the column's geometry; its slot is not part of the key
	vals []uint64
	n    int
}

// reset parses page, forgetting the previous page's columns.
func (pp *pageParse) reset(page []byte) error {
	pp.page, pp.columnar = page, IsColumnarPage(page)
	for i := range pp.shared {
		pp.shared[i].n = 0
	}
	if pp.columnar {
		return pp.view.Reset(page)
	}
	var err error
	pp.offs, pp.minLen, err = RecordOffsets(page, pp.offs[:0])
	return err
}

// column returns the values of column f in the page's first k rows.
func (pp *pageParse) column(f foldCol, k int) []uint64 {
	for i := range pp.shared {
		c := &pp.shared[i]
		if sameColumn(c.f, f) {
			if c.n < k {
				c.vals = slices.Grow(c.vals[:0], k)[:k]
				pp.read(f, c.vals)
				c.n = k
			}
			return c.vals[:k]
		}
	}
	pp.vals = slices.Grow(pp.vals[:0], k)[:k]
	pp.read(f, pp.vals)
	return pp.vals
}

// read fills vals with column f of the page's first len(vals) rows.
func (pp *pageParse) read(f foldCol, vals []uint64) {
	if pp.columnar {
		seg := pp.view.Col(f.col)
		for i := range vals {
			vals[i] = readU(seg[i*f.width:], f.width)
		}
		return
	}
	for i := range vals {
		vals[i] = readU(pp.page[int(pp.offs[i])+f.offset:], f.width)
	}
}

// sideFolds is the side indexes riding one writer: each sealed page is
// parsed once for all of them, and a column more than one folds is read
// once.
type sideFolds struct {
	xs    []*sideIndex
	parse pageParse
}

// add puts s on the writer and keeps the columns it shares with the indexes
// already there.
func (sf *sideFolds) add(s *sideIndex) {
	for _, f := range s.folded {
		same := func(g foldCol) bool { return sameColumn(f, g) }
		kept := slices.ContainsFunc(sf.parse.shared, func(c keptCol) bool { return same(c.f) })
		if !kept && slices.ContainsFunc(sf.xs, func(o *sideIndex) bool { return slices.ContainsFunc(o.folded, same) }) {
			sf.parse.shared = append(sf.parse.shared, keptCol{f: f})
		}
	}
	sf.xs = append(sf.xs, s)
}

// note folds one sealed page into every index.
func (sf *sideFolds) note(num int64, page []byte) {
	if sf.parse.reset(page) != nil {
		return // a page the writer formed is never corrupt
	}
	for _, s := range sf.xs {
		s.mu.Lock()
		s.fold(num, &sf.parse)
		s.mu.Unlock()
	}
}

// seal seals every index, once the writer's last fold has returned.
func (sf *sideFolds) seal() {
	for _, s := range sf.xs {
		s.lockedSeal()
	}
}

// lockedSeal runs the kind's seal under the write lock: the writer's close
// hook and the end of a rebuild.
func (s *sideIndex) lockedSeal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sum.seal()
}

// NumPages returns how many pages have slots.
func (s *sideIndex) NumPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}

// Covers reports whether every page 0..n-1 has a slot — the staleness check
// Ensure applies against the set's page count, and the gate the query layer
// checks before trusting an authoritative index, which would wrongly
// exclude a page it never saw. O(1): the covered prefix is kept as slots are
// created.
func (s *sideIndex) Covers(n int64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return n <= s.covered
}

// --- persistence -------------------------------------------------------------

const (
	sideHeaderBytes = 40 // magic, version, ncols, ndesignated, npages
	sidePageBytes   = 24 // page number, rows, flags; the summary follows
	sidePageValid   = 1  // flags bit: the page parsed cleanly
)

// Marshal seals the index and serializes it as the compact side object: a
// header carrying the kind's format version, the schema shape and designated
// columns (so an older-format, stale or reshaped object is rejected on load),
// one fixed-size record per page in page order, then the kind's body.
func (s *sideIndex) Marshal() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sum.seal()
	nums := make([]int64, 0, len(s.pages))
	for n := range s.pages {
		nums = append(nums, n)
	}
	slices.Sort(nums)
	buf := make([]byte, 0, sideHeaderBytes+16*len(s.widths)+8*len(s.cols)+(sidePageBytes+len(s.blank))*len(nums))
	put := func(v uint64) { buf = le.AppendUint64(buf, v) }
	put(s.kind.magic)
	put(s.kind.version)
	put(uint64(len(s.widths)))
	put(uint64(len(s.cols)))
	put(uint64(len(nums)))
	for i := range s.widths {
		put(uint64(s.widths[i]))
		put(uint64(s.offsets[i]))
	}
	for _, c := range s.cols {
		put(uint64(c))
	}
	for _, n := range nums {
		p := s.pages[n]
		put(uint64(n))
		put(uint64(p.rows))
		flags := uint64(0)
		if p.valid {
			flags |= sidePageValid
		}
		put(flags)
		buf = append(buf, p.sum...)
	}
	return s.sum.appendBody(buf)
}

// unmarshal loads a serialized object into a fresh index built for the spec
// the caller wants, erroring on any mismatch (schema evolved, designated
// columns changed) so callers rebuild instead of trusting a stale shape.
// Every count comes off disk as a full u64 and is bounded against the bytes
// actually present before it enters size arithmetic or drives a loop, so a
// corrupt object errors instead of over-allocating or reading past the
// buffer.
func (s *sideIndex) unmarshal(data []byte) error {
	name := s.kind.name
	if len(data) < sideHeaderBytes {
		return fmt.Errorf("services: %s side object truncated (%d bytes)", name, len(data))
	}
	off := 0
	get := func() uint64 {
		v := le.Uint64(data[off:])
		off += 8
		return v
	}
	if get() != s.kind.magic {
		return fmt.Errorf("services: bad %s magic", name)
	}
	if v := get(); v != s.kind.version {
		return fmt.Errorf("services: unsupported %s version %d", name, v)
	}
	ncols, ndes, npages := int(get()), int(get()), int(get())
	if ncols != len(s.widths) || ndes != len(s.cols) {
		return fmt.Errorf("services: %s shape mismatch (%d cols, %d designated)", name, ncols, ndes)
	}
	fixed := sideHeaderBytes + 16*ncols + 8*ndes
	if len(data) < fixed {
		return fmt.Errorf("services: %s schema section truncated (%d of %d bytes)", name, len(data), fixed)
	}
	perPage := sidePageBytes + len(s.blank)
	if maxPages := (len(data) - fixed) / perPage; npages < 0 || npages > maxPages {
		return fmt.Errorf("services: %s claims %d pages, %d bytes hold at most %d", name, npages, len(data), maxPages)
	}
	for i := 0; i < ncols; i++ {
		if w, o := int(get()), int(get()); w != s.widths[i] || o != s.offsets[i] {
			return fmt.Errorf("services: %s column %d is %d@%d, spec wants %d@%d", name, i, w, o, s.widths[i], s.offsets[i])
		}
	}
	for i := 0; i < ndes; i++ {
		if c := int(get()); c != s.cols[i] {
			return fmt.Errorf("services: %s designated columns differ from spec", name)
		}
	}
	for i := 0; i < npages; i++ {
		num := int64(get())
		if num < 0 {
			return fmt.Errorf("services: %s page number %d out of range", name, num)
		}
		if s.pages[num] != nil {
			return fmt.Errorf("services: %s repeats page %d", name, num)
		}
		p := s.page(num)
		p.rows = int64(get())
		if get()&sidePageValid == 0 {
			s.invalidate(num, p)
		}
		off += copy(p.sum, data[off:])
	}
	rest, err := s.sum.decodeBody(data[off:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("services: %s has %d trailing bytes", name, len(rest))
	}
	return nil
}

// Save persists the index as the set's side object for its kind.
func (s *sideIndex) Save(set *core.LocalitySet) error {
	return set.WriteSideObject(s.kind.tag, s.Marshal())
}

// --- wiring ------------------------------------------------------------------

// attachSideIndex wires maintenance of x into a sequential writer: each
// page, of either layout, is folded once sealed, while it is still pinned —
// on the writer's indexer goroutine, beside the writer rather than in its
// path — and x seals at close, once Close has waited for every fold, so when
// Close returns x covers every page and is sealed. Every index attached to
// one writer folds through the same parse of each page (sideFolds). x is
// registered as the set's side index for its kind so predicate scans find
// it; call Save after the writer closes to persist it.
func attachSideIndex(w *SeqWriter, x sideIndexer) error {
	s := x.base()
	if w.widths != nil && !slices.Equal(w.widths, s.widths) {
		return fmt.Errorf("services: %s schema has column widths %v, columnar set %q stores %v",
			s.kind.name, s.widths, w.set.Name(), w.widths)
	}
	w.sides.add(s)
	w.set.SetSideIndex(s.kind.tag, x)
	return nil
}

// ensureSideIndex returns a usable index for the set, of the kind and spec
// fresh builds an empty one for: the attached one if it has that shape and
// covers every page; else the persisted side object if it parses against
// the spec and covers every page; else a rebuild by one full scan,
// persisted and attached before returning — absent, torn or stale side
// objects on seed sets heal here, and a torn or undecodable one counts a
// SideObjectRebuild. A real read failure (a drive fault, not a missing or
// corrupt object) propagates instead: healing over it would mask the fault
// and overwrite an object that may be intact on disk.
func ensureSideIndex[T sideIndexer](set *core.LocalitySet, fresh func() (T, error)) (T, error) {
	var none T
	x, err := fresh()
	if err != nil {
		return none, err
	}
	s, n := x.base(), set.NumPages()
	tag := s.kind.tag
	if at, ok := set.SideIndex(tag).(T); ok && at.base().sameShape(s) && at.base().Covers(n) {
		return at, nil
	}
	switch data, err := set.ReadSideObject(tag); {
	case err == nil:
		if s.unmarshal(data) != nil {
			// Read back fine but does not decode against the spec.
			set.Stats().SideObjectRebuilds.Add(1)
		} else if s.Covers(n) {
			set.SetSideIndex(tag, x)
			return x, nil
		}
		// Undecodable, or decoded but stale (pages appended since the
		// save): rebuild into a clean index.
		if x, err = fresh(); err != nil {
			return none, err
		}
		s = x.base()
	case errors.Is(err, pfs.ErrNoSideObject):
		// Never written (seed set): plain rebuild.
	case errors.Is(err, pfs.ErrCorruptSideObject):
		// Torn by a crash mid-write.
		set.Stats().SideObjectRebuilds.Add(1)
	default:
		return none, fmt.Errorf("services: read %s of %q: %w", s.kind.name, set.Name(), err)
	}
	if err := s.rebuildFromScan(set, n); err != nil {
		return none, fmt.Errorf("services: rebuild %s of %q: %w", s.kind.name, set.Name(), err)
	}
	if err := s.Save(set); err != nil {
		return none, err
	}
	set.SetSideIndex(tag, x)
	return x, nil
}

// rebuildFromScan folds the set's first n pages, one full scan, through the
// writers' page fold and seals the result.
func (s *sideIndex) rebuildFromScan(set *core.LocalitySet, n int64) error {
	for num := int64(0); num < n; num++ {
		p, err := set.Pin(num)
		if err != nil {
			return err
		}
		err = s.NotePage(num, p.Bytes())
		if uerr := set.Unpin(p, false); err == nil {
			err = uerr
		}
		if err != nil {
			return err
		}
	}
	s.lockedSeal()
	return nil
}
