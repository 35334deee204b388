package cluster

import (
	"fmt"
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

// DataProxy is the computation-process side of Fig 2. It is co-located with
// one worker's storage process: control messages (GetSetPages, PinPage,
// page acknowledgements) travel over the socket, while page bytes are
// accessed directly through the storage process's shared memory arena —
// no copy, no serialization.
type DataProxy struct {
	workerAddr string
	auth       string
	pool       *core.BufferPool // the co-located worker's shared memory
}

// NewDataProxy attaches a computation process to its node's worker. The
// worker handle provides the shared memory mapping; the address carries the
// socket protocol.
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
	c, err := start(dp.workerAddr, dp.auth, GetSetPagesReq{Set: set})
	if err != nil {
		return err
	}
	defer c.close()
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
	recvErr := replies(c, func(pm PageMeta) (bool, error) {
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
	if err := <-workErrs; err != nil { // the first failure, if a thread had one
		return err
	}
	if recvErr != nil {
		return recvErr
	}
	// End-of-scan handshake: the storage process confirms every page
	// acknowledgement has been applied before we return, so the set can be
	// dropped or rewritten immediately afterwards.
	if err := ack(-1); err != nil {
		return err
	}
	_, err = next[any](c)
	return err
}

// PageWriter writes records into a set through PinPage/UnpinPage messages:
// the storage process pins a fresh page and returns its shared-memory
// offset; the computation thread fills it in place and unpins it when full
// (§5). One PageWriter per thread.
type PageWriter struct {
	dp     *DataProxy
	set    string
	region int // record bytes a page holds, learned from the set on first Add
	meta   PageMeta
	buf    []byte
	off    int
	open   bool
	n      int64
}

// NewPageWriter creates a proxy-side writer for a set on the co-located
// worker.
func (dp *DataProxy) NewPageWriter(set string) *PageWriter {
	return &PageWriter{dp: dp, set: set}
}

// Add appends one record, pinning a new shared-memory page when needed.
func (pw *PageWriter) Add(rec []byte) error {
	if pw.region == 0 {
		set, ok := pw.dp.pool.GetSet(pw.set)
		if !ok {
			return fmt.Errorf("cluster: no set %q on worker %s", pw.set, pw.dp.workerAddr)
		}
		pw.region = int(set.PageSize()) - services.PageHeaderSize
	}
	if err := services.CheckRecordSize(len(rec), pw.region); err != nil {
		return err
	}
	for {
		if !pw.open {
			meta, err := call[PageMeta](pw.dp.workerAddr, pw.dp.auth, PinPageReq{Set: pw.set})
			if err != nil {
				return err
			}
			pw.meta = meta
			pw.buf = pw.dp.pool.SharedMemory().Slice(meta.Offset, meta.Size)
			services.InitServicePage(pw.buf, pw.region)
			pw.off = services.PageHeaderSize
			pw.open = true
		}
		next, ok := services.AppendServiceRecord(pw.buf, pw.off, len(pw.buf), rec)
		if ok {
			pw.off = next
			pw.n++
			return nil
		}
		if err := pw.unpin(); err != nil {
			return err
		}
	}
}

// Count reports records written.
func (pw *PageWriter) Count() int64 { return pw.n }

func (pw *PageWriter) unpin() error {
	if !pw.open {
		return nil
	}
	pw.open = false
	_, err := call[any](pw.dp.workerAddr, pw.dp.auth, UnpinPageReq{Set: pw.set, PageNum: pw.meta.PageNum, Dirty: true})
	return err
}

// Close unpins the writer's current page.
func (pw *PageWriter) Close() error { return pw.unpin() }
