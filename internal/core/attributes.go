// Package core implements Pangea's primary contribution: the locality set
// abstraction (paper §3), the unified buffer pool shared by all data types
// on a node (§5), and the data-aware paging system that orders locality sets
// by the expected cost of evicting their next victim page (§6).
package core

// DurabilityType says when a locality set's pages reach disk (Table 1).
type DurabilityType uint8

const (
	// WriteBack pages are cached first and written to disk only when
	// evicted while still alive. Used for transient job and execution data.
	WriteBack DurabilityType = iota
	// WriteThrough pages are persisted as soon as they are fully written.
	// Used for user data that other applications must be able to read.
	WriteThrough
)

func (d DurabilityType) String() string {
	if d == WriteThrough {
		return "write-through"
	}
	return "write-back"
}

// WritingPattern describes how pages of a set are produced (Table 1). It is
// inferred automatically from the service the application attaches to the
// set (§3.2).
type WritingPattern uint8

const (
	// WriteNone means the set is not being written.
	WriteNone WritingPattern = iota
	// SequentialWrite: immutable data written to each page sequentially
	// (the sequential write service).
	SequentialWrite
	// ConcurrentWrite: multiple concurrent streams write one page (the
	// shuffle service).
	ConcurrentWrite
	// RandomMutableWrite: data dynamically allocated, modified and freed in
	// a page (the hash service).
	RandomMutableWrite
)

func (w WritingPattern) String() string {
	switch w {
	case SequentialWrite:
		return "sequential-write"
	case ConcurrentWrite:
		return "concurrent-write"
	case RandomMutableWrite:
		return "random-mutable-write"
	default:
		return "none"
	}
}

// ReadingPattern describes how pages of a set are consumed (Table 1).
type ReadingPattern uint8

const (
	// ReadNone means the set is not being read.
	ReadNone ReadingPattern = iota
	// SequentialRead: every page visited once per scan by the sequential
	// read service, with no reuse inside a scan. A scan walks its page list
	// front to back, except over a ReadOnce set (the shuffle read side),
	// whose order carries no meaning: there the cursor takes the resident
	// pages first.
	SequentialRead
	// RandomRead: pages probed in arbitrary order (hash service).
	RandomRead
)

func (r ReadingPattern) String() string {
	switch r {
	case SequentialRead:
		return "sequential-read"
	case RandomRead:
		return "random-read"
	default:
		return "none"
	}
}

// CurrentOperation is what the application is doing to the set right now
// (Table 1). It controls how many pages an eviction takes: sets under write
// lose a single page, read-only sets lose 10% at a time (§6).
type CurrentOperation uint8

const (
	// OpNone: no operation in progress.
	OpNone CurrentOperation = iota
	// OpRead: a read-only operation is in progress.
	OpRead
	// OpWrite: a write-only operation is in progress.
	OpWrite
	// OpReadWrite: the set is being read and written (e.g. aggregation).
	OpReadWrite
)

func (o CurrentOperation) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpReadWrite:
		return "read-and-write"
	default:
		return "none"
	}
}

// involvesWrite reports whether the operation writes; such sets lose only
// one page per eviction because data just written tends to be read soon.
func (o CurrentOperation) involvesWrite() bool { return o == OpWrite || o == OpReadWrite }

// Attributes is the tag vector of one locality set (Table 1). Reading,
// Writing, CurrentOp and ReadOnce are stamped by services at runtime;
// Durability and Pinned are chosen by the application at set creation;
// LifetimeEnded is raised by the application when the data will never be
// referenced again.
type Attributes struct {
	Durability    DurabilityType
	Writing       WritingPattern
	Reading       ReadingPattern
	CurrentOp     CurrentOperation
	Pinned        bool // Location attribute: pinned sets are never evicted
	LifetimeEnded bool
	// ReadOnce is the Lifetime attribute applied per page: each page of the
	// set is read exactly once, so its lifetime ends when its reader releases
	// it (LocalitySet.Retire) rather than when the whole set's does. Stamped
	// by the shuffle service on its partitions (SetReadOnce); never set on
	// write-through data, which other applications must be able to read.
	ReadOnce bool
}

// EvictStrategy is the per-locality-set page replacement order, selected
// automatically from the set's access patterns (§6): MRU for sequential
// patterns, LRU for random patterns.
type EvictStrategy uint8

const (
	// EvictMRU evicts the most recently used page first.
	EvictMRU EvictStrategy = iota
	// EvictLRU evicts the least recently used page first.
	EvictLRU
)

func (e EvictStrategy) String() string {
	if e == EvictLRU {
		return "LRU"
	}
	return "MRU"
}

// Strategy derives the set's replacement order from its attribute tags.
// Random patterns (hash data) take LRU; all sequential patterns take MRU,
// which protects the front of a scan loop from being evicted right before
// it is re-read (§6).
func (a Attributes) Strategy() EvictStrategy {
	if a.Writing == RandomMutableWrite || a.Reading == RandomRead {
		return EvictLRU
	}
	return EvictMRU
}

// ReadPenalty is the w_r factor of the priority model: re-reading spilled
// random-access data costs more than its raw I/O because the hash map must
// be reconstructed and partial aggregates merged (§6).
func (a Attributes) ReadPenalty() float64 {
	if a.Reading == RandomRead || a.Writing == RandomMutableWrite {
		return 3.0
	}
	return 1.0
}
