package cluster

import (
	"fmt"
	"io"
	"net"
	"sync"

	"pangea/internal/core"
	"pangea/internal/services"
)

// The Fig 2 scan's two windows: the storage process pins at most pinWindow
// pages ahead of the computation, and the proxy's circular buffer, a
// buffered channel, holds the metadata of up to ringSize of them. The ring
// is larger than the pin window, so the receiver never waits for a slot.
const (
	pinWindow = 8
	ringSize  = 16
)

// DataProxy is the computation-process side of Fig 2. Control messages
// (GetSetPages, PinPage, page acknowledgements) travel over the socket,
// while page bytes are accessed directly in the worker's pool arena — no
// copy, no serialization. The arena is a mapping private to the worker's
// process, so the "computation process" is a set of goroutines in that same
// process: a proxy in another process would need a shared mapping, which
// no pool has yet.
type DataProxy struct {
	workerAddr string
	auth       string
	pool       *core.BufferPool // the co-located worker's pool, whose arena it reads
}

// NewDataProxy attaches a computation to its node's worker, in the worker's
// process. The worker handle provides the pool's arena; the address carries
// the socket protocol.
func NewDataProxy(w *Worker, privateKey string) *DataProxy {
	return &DataProxy{workerAddr: w.Addr(), auth: AuthToken(privateKey), pool: w.Pool()}
}

// Scan runs the Fig 2 flow: a GetSetPages message starts the storage
// process pinning pages; their metadata is pushed into a circular buffer;
// numThreads long-living worker threads pull page metadata in a loop, slice
// the shared arena at the indicated offset, and run fn over every record.
// Pages are acknowledged (and unpinned by the storage process) as each
// thread finishes them.
func (dp *DataProxy) Scan(set string, numThreads int, fn func(thread int, rec []byte) error) error {
	if numThreads < 1 {
		numThreads = 1
	}
	return exchange(dp.workerAddr, dp.auth, GetSetPagesReq{Set: set}, func(c *conn) (bool, error) {
		return dp.scan(c, numThreads, fn)
	})
}

// scan is Scan's exchange on c, clean only at the end-of-scan handshake.
func (dp *DataProxy) scan(c *conn, numThreads int, fn func(thread int, rec []byte) error) (clean bool, err error) {
	pages := make(chan PageMeta, ringSize)
	stop := make(chan struct{}) // closed by the first computation thread that fails
	halt := sync.OnceFunc(func() { close(stop) })
	ack := func(num int64) error { return c.send(request{Auth: dp.auth, Msg: PageDone{PageNum: num}}) }

	// Long-living computation threads: pull page metadata, touch shared
	// memory, acknowledge.
	var wg sync.WaitGroup
	workErrs := make(chan error, numThreads)
	arena := dp.pool.SharedMemory()
	for t := 0; t < numThreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for pm := range pages {
				buf := arena.Slice(pm.Offset, pm.Size)
				err := services.WalkPage(buf, func(rec []byte) error { return fn(t, rec) })
				if err != nil {
					halt() // before the ack: the PageMeta that provokes must end the receiver, not be pushed
				}
				if aerr := ack(pm.PageNum); err == nil {
					err = aerr
				}
				if err != nil {
					workErrs <- err
					halt()
					return
				}
			}
		}(t)
	}
	// Receiver: socket -> circular buffer, until NoMorePage, the stream's
	// error, or a computation thread stopping the scan. A stop already made
	// wins over a free slot, so no page is pushed after it.
	_, recvErr := replies(c, func(pm PageMeta) (bool, error) {
		select {
		case <-stop:
			return true, nil
		default:
		}
		if pm.NoMorePage {
			return true, nil
		}
		select {
		case pages <- pm:
			return false, nil
		case <-stop:
			return true, nil
		}
	})
	close(pages)
	wg.Wait()
	close(workErrs)
	if err = <-workErrs; err == nil { // the first failure, if a thread had one
		err = recvErr
	}
	if err != nil {
		// An aborted scan ends the acknowledgements instead of the handshake
		// and reads until the storage process, its pages unpinned, closes.
		_ = c.c.(*net.TCPConn).CloseWrite()
		_, _ = io.Copy(io.Discard, c.c)
		return false, err
	}
	// End-of-scan handshake: the storage process confirms every page
	// acknowledgement has been applied before we return, so the set can be
	// dropped or rewritten immediately afterwards.
	if err := ack(-1); err != nil {
		return false, err
	}
	_, err = next[any](c)
	return whole(err), err
}

// PageWriter writes records into a set through PinPage/UnpinPage messages:
// the storage process pins a fresh page and returns its shared-memory
// offset; the computation thread fills it in place, in the set's own layout,
// and unpins it when full (§5). One PageWriter per thread.
type PageWriter struct {
	pages proxyPages
	w     *services.RecordWriter // made by the first Add, for the set's layout
}

// proxyPages is a PageWriter's page source: pages of its set that the
// storage process pins and unpins.
type proxyPages struct {
	dp   *DataProxy
	set  string
	page int64 // the page pinned last
}

func (pp *proxyPages) NewPage() ([]byte, error) {
	meta, err := call[PageMeta](pp.dp.workerAddr, pp.dp.auth, PinPageReq{Set: pp.set})
	if err != nil {
		return nil, err
	}
	pp.page = meta.PageNum
	return pp.dp.pool.SharedMemory().Slice(meta.Offset, meta.Size), nil
}

func (pp *proxyPages) Release() error {
	_, err := call[any](pp.dp.workerAddr, pp.dp.auth, UnpinPageReq{Set: pp.set, PageNum: pp.page, Dirty: true})
	return err
}

// NewPageWriter creates a proxy-side writer for a set on the co-located
// worker.
func (dp *DataProxy) NewPageWriter(set string) *PageWriter {
	return &PageWriter{pages: proxyPages{dp: dp, set: set}}
}

// Add appends one record, pinning a new shared-memory page when needed.
func (pw *PageWriter) Add(rec []byte) error {
	if pw.w == nil {
		set, ok := pw.pages.dp.pool.GetSet(pw.pages.set)
		if !ok {
			return fmt.Errorf("cluster: no set %q on worker %s", pw.pages.set, pw.pages.dp.workerAddr)
		}
		pw.w = services.NewRecordWriter(set, &pw.pages)
	}
	return pw.w.Add(rec)
}

// Count reports records written.
func (pw *PageWriter) Count() int64 {
	if pw.w == nil {
		return 0
	}
	return pw.w.Count()
}

// Close unpins the writer's current page.
func (pw *PageWriter) Close() error {
	if pw.w == nil {
		return nil
	}
	return pw.w.Close()
}
