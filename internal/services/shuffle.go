package services

import (
	"fmt"
	"sync"

	"pangea/internal/core"
)

// DefaultSmallPageSize is the default size of the small pages the shuffle
// service splits off a buffer-pool page — "several megabytes" in the paper;
// configurable per shuffle for the MB-scale experiments here.
const DefaultSmallPageSize = 1 << 20

// ShuffleSink manages one shuffle partition's locality set: a secondary,
// small-page allocator that pins a large buffer-pool page, splits it into
// small pages, and hands those to concurrent writer threads so multiple
// data streams for the same partition share one page (§8). The large page
// is unpinned only after all of its small pages are fully written.
type ShuffleSink struct {
	set       *core.LocalitySet
	smallSize int // effective small-page size (splitPage), not the requested one

	mu         sync.Mutex
	cur        *shufflePage
	nextRegion int
	perPage    int
	// taking is open while a writer pins the next large page outside mu;
	// writers that need a small page meanwhile wait for it to close.
	taking chan struct{}
}

type shufflePage struct {
	p       *core.Page
	refs    int  // small pages handed out and not yet released
	retired bool // no further regions will be split from this page
}

// NewShuffleSink attaches a small-page allocator to the partition's set.
// A smallPageSize that divides the set's page size yields that many small
// pages per page, each slightly smaller than asked for (splitPage).
// It stamps WritingPattern=concurrent-write, CurrentOperation=write.
func NewShuffleSink(set *core.LocalitySet, smallPageSize int) (*ShuffleSink, error) {
	if smallPageSize <= 0 {
		smallPageSize = DefaultSmallPageSize
	}
	perPage, smallSize := splitPage(set.PageSize(), smallPageSize)
	if perPage < 1 || smallSize <= recHeaderSize {
		return nil, fmt.Errorf("services: small page size %d does not fit page size %d", smallPageSize, set.PageSize())
	}
	set.SetWriting(core.ConcurrentWrite)
	set.SetCurrentOp(core.OpWrite)
	return &ShuffleSink{set: set, smallSize: smallSize, perPage: perPage}, nil
}

// Set returns the partition's locality set.
func (sk *ShuffleSink) Set() *core.LocalitySet { return sk.set }

// acquireRegion splits the next small page off the current large page,
// pinning a new large page when the current one is fully split.
func (sk *ShuffleSink) acquireRegion() (*shufflePage, int, error) {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	for sk.cur == nil || sk.nextRegion >= sk.perPage {
		if err := sk.takePageLocked(); err != nil {
			return nil, 0, err
		}
	}
	off := pageHeaderSize + sk.nextRegion*sk.smallSize
	sk.nextRegion++
	sk.cur.refs++
	return sk.cur, off, nil
}

// takePageLocked retires the current large page and pins the next one, or
// waits while another writer does. The pin runs outside sk.mu: a writer
// releasing a small page of the retired page — whose unpin may be the only
// way to free the memory the pin waits for — must not queue behind it.
func (sk *ShuffleSink) takePageLocked() error {
	if taking := sk.taking; taking != nil {
		sk.mu.Unlock()
		<-taking
		sk.mu.Lock()
		return nil
	}
	if err := sk.retireLocked(); err != nil {
		return err
	}
	taking := make(chan struct{})
	sk.taking = taking
	sk.mu.Unlock()
	p, err := sk.set.NewPage()
	sk.mu.Lock()
	sk.taking = nil
	close(taking)
	if err != nil {
		return err
	}
	initPage(p.Bytes(), sk.smallSize)
	sk.cur, sk.nextRegion = &shufflePage{p: p}, 0
	return nil
}

// retireLocked retires the current large page: no further small pages are
// cut from it, and it is unpinned once every one handed out is released.
func (sk *ShuffleSink) retireLocked() error {
	cur := sk.cur
	if cur == nil {
		return nil
	}
	sk.cur, cur.retired = nil, true
	return sk.maybeUnpinLocked(cur)
}

// releaseRegion records that a small page is fully written.
func (sk *ShuffleSink) releaseRegion(sp *shufflePage) error {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	sp.refs--
	return sk.maybeUnpinLocked(sp)
}

// maybeUnpinLocked unpins a large page once it is retired and all of its
// small pages are written.
func (sk *ShuffleSink) maybeUnpinLocked(sp *shufflePage) error {
	if sp.retired && sp.refs == 0 && sp.p != nil {
		p := sp.p
		sp.p = nil
		return sk.set.Unpin(p, true)
	}
	return nil
}

// Close retires the current large page. Every VirtualShuffleBuffer drawing
// from this sink must be closed first.
func (sk *ShuffleSink) Close() error {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	if err := sk.retireLocked(); err != nil {
		return err
	}
	sk.set.SetCurrentOp(core.OpNone)
	return nil
}

// VirtualShuffleBuffer gives one writer thread transparent access to small
// pages of a partition (§8): a RecordWriter whose pages are the small pages
// the partition's allocator splits off, keeping the offset in the small page
// its thread is filling. One buffer per (worker, partition).
type VirtualShuffleBuffer struct {
	*RecordWriter
}

// smallPages is a VirtualShuffleBuffer's page source: small pages of its
// partition's sink, and the large page the open one is cut from.
type smallPages struct {
	sink *ShuffleSink
	sp   *shufflePage
}

func (s *smallPages) NewPage() ([]byte, error) {
	sp, off, err := s.sink.acquireRegion()
	if err != nil {
		return nil, err
	}
	s.sp = sp
	return sp.p.Bytes()[off : off+s.sink.smallSize], nil
}

func (s *smallPages) Release() error {
	sp := s.sp
	s.sp = nil
	return s.sink.releaseRegion(sp)
}

// NewVirtualShuffleBuffer creates a writer-thread-local view of a sink.
func NewVirtualShuffleBuffer(sink *ShuffleSink) *VirtualShuffleBuffer {
	return &VirtualShuffleBuffer{&RecordWriter{src: &smallPages{sink: sink}, small: true, size: sink.smallSize}}
}

// Shuffle is the full shuffle service: one sink (and hence one locality
// set) per partition, so that spilled shuffle data produces at most
// numPartitions files instead of Spark's numCores × numPartitions (§9.2.2).
type Shuffle struct {
	bp    *core.BufferPool
	sinks []*ShuffleSink
}

// NewShuffle creates one locality set per partition in the pool, named
// prefix-<partition>, and stamps each read-once (core.Attributes.ReadOnce): a
// partition is read exactly once (ReadPartition), so a page's lifetime ends
// when its reader releases it. If a partition cannot be set up, the ones
// already created are dropped again.
func NewShuffle(bp *core.BufferPool, prefix string, partitions int, pageSize int64, smallPageSize int) (*Shuffle, error) {
	sh := &Shuffle{bp: bp}
	for i := 0; i < partitions; i++ {
		sink, err := newPartition(bp, fmt.Sprintf("%s-%d", prefix, i), pageSize, smallPageSize)
		if err != nil {
			_ = sh.Drop() // report why the shuffle could not be made, not the clean-up
			return nil, err
		}
		sh.sinks = append(sh.sinks, sink)
	}
	return sh, nil
}

// newPartition creates one partition's set with its sink attached; on failure
// the set is gone again.
func newPartition(bp *core.BufferPool, name string, pageSize int64, smallPageSize int) (*ShuffleSink, error) {
	set, err := bp.CreateSet(core.SetSpec{Name: name, PageSize: pageSize})
	if err != nil {
		return nil, err
	}
	sink, err := NewShuffleSink(set, smallPageSize)
	if err == nil {
		err = set.SetReadOnce()
	}
	if err != nil {
		_ = bp.DropSet(set)
		return nil, err
	}
	return sink, nil
}

// Partitions returns the number of shuffle partitions.
func (sh *Shuffle) Partitions() int { return len(sh.sinks) }

// Sink returns the sink for one partition.
func (sh *Shuffle) Sink(partition int) *ShuffleSink { return sh.sinks[partition] }

// Writer returns a per-thread set of virtual shuffle buffers, one per
// partition.
func (sh *Shuffle) Writer() []*VirtualShuffleBuffer {
	out := make([]*VirtualShuffleBuffer, len(sh.sinks))
	for i, sk := range sh.sinks {
		out[i] = NewVirtualShuffleBuffer(sk)
	}
	return out
}

// CloseWriters closes a thread's buffers.
func CloseWriters(bufs []*VirtualShuffleBuffer) error {
	var first error
	for _, b := range bufs {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close retires all sinks; call after every writer thread has closed its
// buffers.
func (sh *Shuffle) Close() error {
	var first error
	for _, sk := range sh.sinks {
		if err := sk.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ReadPartition scans one partition's records with numThreads workers via
// the sequential read service. It consumes the partition: the sets are
// read-once, so each page is freed — never spilled — as its reader releases
// it, and a partition can be read only once; a second read fails on its first
// pin with core.ErrConsumed rather than scan nothing. Records arrive in no
// particular order (pages still resident are read before spilled ones), and
// with numThreads > 1 fn is called from several goroutines at once, with
// nothing to tell them apart: it must synchronize what it shares.
func (sh *Shuffle) ReadPartition(partition, numThreads int, fn func(rec []byte) error) error {
	return ScanSet(sh.sinks[partition].set, numThreads, func(_ int, rec []byte) error { return fn(rec) })
}

// Drop drops every partition's set — memory, registry entry and files — and
// returns the first error. Every page must have been released: call it after
// Close, once no reader is running.
func (sh *Shuffle) Drop() error {
	var first error
	for _, sk := range sh.sinks {
		if err := sh.bp.DropSet(sk.set); err != nil && first == nil {
			first = err
		}
	}
	return first
}
