package cluster

import (
	"fmt"
	"net"
	"sync"

	"pangea/internal/core"
	"pangea/internal/disk"
	"pangea/internal/locking"
	"pangea/internal/services"
)

// WorkerConfig configures one worker node's storage process.
type WorkerConfig struct {
	// PrivateKey is the cluster key; requests with a different key are
	// rejected (§3.3).
	PrivateKey string
	// Memory is the size of the node's shared buffer pool.
	Memory int64
	// DiskDir is the root directory of the node's simulated drives.
	DiskDir string
	// Disks is the number of drives (default 1).
	Disks int
	// DiskConfig throttles the drives; zero value means unthrottled.
	DiskConfig disk.Config
	// Policy is the paging policy; nil means data-aware.
	Policy core.Policy
	// Logf sinks diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Worker is one Pangea worker node: a storage process owning the node's
// buffer pool, file system and services, serving the data-proxy protocol
// over TCP.
type Worker struct {
	*server
	pool *core.BufferPool

	// mu guards only the maps below; each setWriter carries its own lock so
	// record appends to different locality sets proceed in parallel, the
	// same per-set granularity the buffer pool itself uses.
	mu      locking.RWMutex
	writers map[string]*setWriter
	pinned  map[string]map[int64]*core.Page // pages pinned via PinPageReq
}

// setWriter is one locality set's server-side sequential writer plus the
// lock that serializes appends to it (SeqWriter is single-threaded by
// design: one writer per page, §8).
type setWriter struct {
	mu locking.Mutex
	wr *services.SeqWriter
}

// NewWorker builds a worker and starts listening on addr ("host:0" picks a
// free port).
func NewWorker(addr string, cfg WorkerConfig) (*Worker, error) {
	if cfg.Disks <= 0 {
		cfg.Disks = 1
	}
	array, err := disk.NewArray(cfg.DiskDir, cfg.Disks, cfg.DiskConfig)
	if err != nil {
		return nil, err
	}
	pool, err := core.NewPool(core.PoolConfig{Memory: cfg.Memory, Array: array, Policy: cfg.Policy})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		pool:    pool,
		writers: make(map[string]*setWriter),
		pinned:  make(map[string]map[int64]*core.Page),
	}
	w.mu.Init(locking.RankWorker)
	w.server = newServer(ln, cfg.PrivateKey, w.handle, cfg.Logf)
	w.start()
	return w, nil
}

// Pool exposes the node's buffer pool to computations in the worker's own
// process (a DataProxy), which touch page bytes in the pool's arena.
func (w *Worker) Pool() *core.BufferPool { return w.pool }

// handle serves the worker's requests.
func (w *Worker) handle(c *conn, msg any) (any, error) {
	switch req := msg.(type) {
	case CreateSetReq:
		_, err := w.pool.CreateSet(req.Spec)
		return nil, err
	case AddRecordsReq:
		return nil, w.addRecords(req)
	case FetchSetReq:
		return w.fetchSet(c, req)
	case GetSetPagesReq:
		return nil, w.scanPages(c, req)
	case PinPageReq:
		return w.pinPage(req)
	case UnpinPageReq:
		return nil, w.unpinPage(req)
	case SealSetReq:
		_, err := w.sealed(req.Set)
		return nil, err
	case DropSetReq:
		return nil, w.dropSet(req)
	case SetStatsReq:
		return w.setStats(req)
	case NodeStatsReq:
		return Stats(w.pool.Snapshot()), nil
	}
	return nil, fmt.Errorf("worker: unexpected message %T", msg)
}

// set looks a locality set up by name.
func (w *Worker) set(name string) (*core.LocalitySet, error) {
	set, ok := w.pool.GetSet(name)
	if !ok {
		return nil, fmt.Errorf("cluster: no set %q on worker %s", name, w.Addr())
	}
	return set, nil
}

// writerFor returns the set's server-side sequential writer, creating it on
// first use.
func (w *Worker) writerFor(name string) (*setWriter, error) {
	w.mu.RLock()
	sw, ok := w.writers[name]
	w.mu.RUnlock()
	if ok {
		return sw, nil
	}
	set, err := w.set(name)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	sw, ok = w.writers[name]
	if !ok {
		sw = &setWriter{wr: services.NewSeqWriter(set)}
		sw.mu.Init(locking.RankSetWriter)
		w.writers[name] = sw
	}
	return sw, nil
}

// sealed closes the set's writer, if it has one — its open page is sealed,
// shrunk to its records and unpinned, so that a scan observes every record
// and no writer page stays pinned — and returns the set.
func (w *Worker) sealed(name string) (*core.LocalitySet, error) {
	w.mu.Lock()
	sw := w.writers[name]
	delete(w.writers, name)
	w.mu.Unlock()
	if sw != nil {
		sw.mu.Lock()
		err := sw.wr.Close()
		sw.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return w.set(name)
}

// addRecords appends a run's records to the set. The run's framing is checked
// in full before the first Add, so a malformed run leaves the set as it was; a
// record too large for the set's page still fails at that record, through
// the writer's record-size rule, with the records before it appended.
func (w *Worker) addRecords(req AddRecordsReq) error {
	sw, err := w.writerFor(req.Set)
	if err != nil {
		return err
	}
	// Appends to this set serialize on its writer; appends to other sets on
	// this worker proceed concurrently.
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return services.WalkFrames(req.Frames, sw.wr.Add)
}

// fetchSet streams the set a page at a time, each page's records as one run:
// a sequential row page's as they lie in the pinned page, any other page's
// framed into one reused buffer. The reply it returns ends the stream.
// It is sent from a goroutine of its own, whose start wakes a processor for
// the reader when both ends share a process: sent from the connection's
// goroutine, they took turns on one (BenchmarkFetchSet 0.75× as fast).
func (w *Worker) fetchSet(c *conn, req FetchSetReq) (any, error) {
	set, err := w.sealed(req.Set)
	if err != nil {
		return nil, err
	}
	sent := make(chan error)
	go func() {
		var framed []byte
		sent <- services.ForEachPage(set, set.PageNums(), 1, func(_ int, _ int64, page []byte) error {
			run, err := services.PageFrames(page, &framed)
			if err != nil || len(run) == 0 {
				return err
			}
			return c.reply(RecordBatch{Frames: run}, nil)
		})
	}()
	return RecordBatch{Last: true}, <-sent
}

// scanPages implements the Fig 2 scan protocol: the storage process pins
// pages ahead of the computation (at most pinWindow unacknowledged), streams
// their shared-memory metadata, and unpins each page when the computation
// acknowledges it with PageDone. The stream ends with NoMorePage or the error
// that cut it short; the computation's PageDone{-1} ends the exchange, and
// the reply to it — sent by the caller, once nothing is left pinned — lets
// the proxy return.
func (w *Worker) scanPages(c *conn, req GetSetPagesReq) error {
	set, err := w.sealed(req.Set)
	if err != nil {
		return err
	}
	// One iterator over the whole set: its cursor stamps the sequential
	// read and hints the pages ahead of the pin-ahead loop below.
	it := services.PageIteratorsFor(set, set.PageNums(), 1)[0]
	var (
		mu   sync.Mutex
		live = make(map[int64]*core.Page, pinWindow)
		sem  = make(chan struct{}, pinWindow)

		ackDone = make(chan struct{}) // closed when the acknowledgements end,
		ackErr  error                 // with a handshake (nil) or this error
	)
	// Acknowledgement reader: unpin the pages the computation has finished,
	// until its PageDone{-1} (nil) or the connection's end. It runs beside the
	// pin-ahead loop because a pin may be waiting for the very memory an
	// acknowledgement frees.
	go func() {
		defer close(ackDone)
		for {
			msg, err := w.recv(c, messageTimeout)
			done, ok := msg.(PageDone)
			if err == nil && !ok {
				err = fmt.Errorf("cluster: unexpected %T during scan", msg)
			}
			if err != nil || done.PageNum < 0 {
				ackErr = err
				return
			}
			mu.Lock()
			p := live[done.PageNum]
			delete(live, done.PageNum)
			mu.Unlock()
			if p != nil {
				if err := set.Unpin(p, false); err != nil {
					w.logf("scan unpin %d: %v", done.PageNum, err)
				}
				<-sem
			}
		}
	}()
pinAhead:
	for {
		select {
		case sem <- struct{}{}:
		case <-ackDone:
			// The computation went away mid-scan: no acknowledgement will
			// ever free a window slot.
			break pinAhead
		}
		p, err := it.Next()
		if err != nil || p == nil {
			// The stream is over. The computation may still be reading the
			// pages in flight, so they stay pinned until it says otherwise.
			_ = c.reply(PageMeta{NoMorePage: true}, err) // a dead connection ends the acknowledgements too
			break
		}
		mu.Lock()
		live[p.Num()] = p
		mu.Unlock()
		if c.reply(PageMeta{PageNum: p.Num(), Offset: p.Offset(), Size: p.Size()}, nil) != nil {
			break
		}
	}
	// Wait for the computation to finish, or go away, and release whatever it
	// did not acknowledge.
	<-ackDone
	mu.Lock()
	for _, p := range live {
		_ = set.Unpin(p, false)
	}
	mu.Unlock()
	set.SetCurrentOp(core.OpNone)
	return ackErr
}

func (w *Worker) pinPage(req PinPageReq) (any, error) {
	set, err := w.set(req.Set)
	if err != nil {
		return nil, err
	}
	p, err := set.NewPage()
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	m := w.pinned[req.Set]
	if m == nil {
		m = make(map[int64]*core.Page)
		w.pinned[req.Set] = m
	}
	m[p.Num()] = p
	w.mu.Unlock()
	return PageMeta{PageNum: p.Num(), Offset: p.Offset(), Size: p.Size()}, nil
}

func (w *Worker) unpinPage(req UnpinPageReq) error {
	set, err := w.set(req.Set)
	if err != nil {
		return err
	}
	w.mu.Lock()
	p := w.pinned[req.Set][req.PageNum]
	delete(w.pinned[req.Set], req.PageNum)
	w.mu.Unlock()
	if p == nil {
		return fmt.Errorf("cluster: page %d of %q not pinned via proxy", req.PageNum, req.Set)
	}
	return set.Unpin(p, req.Dirty)
}

func (w *Worker) dropSet(req DropSetReq) error {
	set, err := w.sealed(req.Set)
	if err != nil {
		return err
	}
	return w.pool.DropSet(set)
}

func (w *Worker) setStats(req SetStatsReq) (any, error) {
	set, err := w.set(req.Set)
	if err != nil {
		return nil, err
	}
	return Stats(set.Snapshot()), nil
}
