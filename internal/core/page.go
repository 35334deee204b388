package core

// PageID identifies a page cluster-wide: the locality set it belongs to and
// its sequence number within the set on this node.
type PageID struct {
	Set SetID
	Num int64
}

// Page is one buffer-pool page of a locality set. The page's bytes live in
// the node's shared arena; the struct itself is only the control block (pin
// count, dirty flag, recency), mirroring the paper's pinned/unpinned and
// dirty/clean flags plus reference counting (§5).
//
// A page is carved at the set's page size. A writer that seals a set's last
// page may give its empty tail back to the arena (LocalitySet.Shrink), so a
// sealed page holds only its records; a shrunk page spills padded to the
// set's page size and reloads into a full frame.
//
// All mutable fields are guarded by the owning LocalitySet's mutex; num and
// off are immutable after creation, and size changes at most once, in
// Shrink, while the caller holds the page's only pin. Policies never see a
// Page — they work on PageRef snapshots inside a PolicyView.
type Page struct {
	set      *LocalitySet
	num      int64
	off      int64 // arena offset
	size     int64
	pin      int32
	dirty    bool
	evicting bool
	// prefetched marks a frame the read-ahead path loaded speculatively and
	// no Pin has referenced yet. The first pin clears it (a prefetch hit);
	// eviction or DropSet of a still-flagged frame counts as wasted
	// speculation. Policies see it as PageRef.Speculative.
	prefetched bool
	lastRef    int64 // logical tick of last access
}

// Num returns the page's sequence number within its locality set.
func (p *Page) Num() int64 { return p.num }

// Set returns the locality set this page belongs to.
func (p *Page) Set() *LocalitySet { return p.set }

// Size returns the page's bytes in the arena: the set's page size, or less
// once the page is shrunk.
func (p *Page) Size() int64 { return p.size }

// Bytes returns the page's memory. The slice aliases the shared arena and is
// valid only while the caller holds a pin on the page.
func (p *Page) Bytes() []byte { return p.set.pool.arena.Slice(p.off, p.size) }

// Offset returns the page's offset within the node's shared arena. The data
// proxy ships this value over the socket so computation threads can map the
// page without copying (§5, Fig 2).
func (p *Page) Offset() int64 { return p.off }
