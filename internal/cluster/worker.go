package cluster

import (
	"errors"
	"fmt"
	"io"
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
	// PinWindow bounds how many scan pages are pinned ahead of the
	// computation (the depth of the Fig 2 circular buffer). Default 8.
	PinWindow int
	// Logf sinks diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Worker is one Pangea worker node: a storage process owning the node's
// buffer pool, file system and services, serving the data-proxy protocol
// over TCP.
type Worker struct {
	cfg   WorkerConfig
	auth  string
	pool  *core.BufferPool
	array *disk.Array
	ln    net.Listener

	// mu guards only the maps below; each setWriter carries its own lock so
	// record appends to different locality sets proceed in parallel, the
	// same per-set granularity the buffer pool itself uses.
	mu      locking.RWMutex
	writers map[string]*setWriter
	pinned  map[string]map[int64]*core.Page // pages pinned via PinPageReq
	closed  bool

	wg sync.WaitGroup
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
	if cfg.PinWindow <= 0 {
		cfg.PinWindow = 8
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
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
		cfg:     cfg,
		auth:    AuthToken(cfg.PrivateKey),
		pool:    pool,
		array:   array,
		ln:      ln,
		writers: make(map[string]*setWriter),
		pinned:  make(map[string]map[int64]*core.Page),
	}
	w.mu.Init(locking.RankWorker)
	w.wg.Add(1)
	go w.serve()
	return w, nil
}

// Addr returns the worker's listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Pool exposes the node's buffer pool to co-located computation processes,
// which touch page bytes through the pool's shared memory.
func (w *Worker) Pool() *core.BufferPool { return w.pool }

// Close stops serving and releases the node's resources. Data on disk is
// preserved (the node may be "revived" by a recovery test).
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	err := w.ln.Close()
	w.wg.Wait()
	return err
}

func (w *Worker) serve() {
	defer w.wg.Done()
	for {
		c, err := w.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			w.cfg.Logf("worker accept: %v", err)
			return
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.handleConn(newConn(c))
		}()
	}
}

func (w *Worker) handleConn(c *conn) {
	defer c.close()
	msg, err := c.recv()
	if err != nil {
		return
	}
	switch req := msg.(type) {
	case CreateSetReq:
		c.send(w.handleCreateSet(req))
	case AddRecordsReq:
		c.send(w.handleAddRecords(req))
	case FetchSetReq:
		w.handleFetchSet(c, req)
	case GetSetPagesReq:
		w.handleGetSetPages(c, req)
	case PinPageReq:
		c.send(w.handlePinPage(req))
	case UnpinPageReq:
		c.send(w.handleUnpinPage(req))
	case DropSetReq:
		c.send(w.handleDropSet(req))
	case SetStatsReq:
		c.send(w.handleSetStats(req))
	case NodeStatsReq:
		c.send(w.handleNodeStats(req))
	case ShutdownReq:
		if w.checkAuth(req.Auth) == nil {
			c.send(OKResp{})
			go w.Close()
		} else {
			c.send(OKResp{Err: "invalid key"})
		}
	default:
		c.send(OKResp{Err: fmt.Sprintf("worker: unexpected message %T", msg)})
	}
}

func (w *Worker) checkAuth(token string) error {
	if token != w.auth {
		return errors.New("cluster: invalid private key")
	}
	return nil
}

func (w *Worker) handleCreateSet(req CreateSetReq) OKResp {
	if err := w.checkAuth(req.Auth); err != nil {
		return OKResp{Err: err.Error()}
	}
	_, err := w.pool.CreateSet(core.SetSpec{
		Name:        req.Name,
		PageSize:    req.PageSize,
		Durability:  durabilityFromWire(req.Durability),
		MemoryQuota: req.MemoryQuota,
		Weight:      req.Weight,
		Layout:      core.PageLayout(req.Layout),
		Columns:     req.Columns,
	})
	if err != nil {
		return OKResp{Err: err.Error()}
	}
	return OKResp{}
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
	set, ok := w.pool.GetSet(name)
	if !ok {
		return nil, fmt.Errorf("cluster: no set %q on worker %s", name, w.Addr())
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

// closeWriter seals the set's pending writer page so scans observe all
// records.
func (w *Worker) closeWriter(name string) error {
	w.mu.Lock()
	sw := w.writers[name]
	delete(w.writers, name)
	w.mu.Unlock()
	if sw == nil {
		return nil
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.wr.Close()
}

func (w *Worker) handleAddRecords(req AddRecordsReq) OKResp {
	if err := w.checkAuth(req.Auth); err != nil {
		return OKResp{Err: err.Error()}
	}
	sw, err := w.writerFor(req.Set)
	if err != nil {
		return OKResp{Err: err.Error()}
	}
	// Appends to this set serialize on its writer; appends to other sets on
	// this worker proceed concurrently.
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for _, rec := range req.Records {
		if err := sw.wr.Add(rec); err != nil {
			return OKResp{Err: err.Error()}
		}
	}
	return OKResp{}
}

const fetchBatch = 512

func (w *Worker) handleFetchSet(c *conn, req FetchSetReq) {
	fail := func(err error) { c.send(RecordBatch{Last: true, Err: err.Error()}) }
	if err := w.checkAuth(req.Auth); err != nil {
		fail(err)
		return
	}
	if err := w.closeWriter(req.Set); err != nil {
		fail(err)
		return
	}
	set, ok := w.pool.GetSet(req.Set)
	if !ok {
		fail(fmt.Errorf("cluster: no set %q", req.Set))
		return
	}
	batch := make([][]byte, 0, fetchBatch)
	flush := func(last bool) error {
		err := c.send(RecordBatch{Records: batch, Last: last})
		batch = batch[:0]
		return err
	}
	err := services.ScanSet(set, 1, func(_ int, rec []byte) error {
		batch = append(batch, append([]byte(nil), rec...))
		if len(batch) >= fetchBatch {
			return flush(false)
		}
		return nil
	})
	if err != nil {
		fail(err)
		return
	}
	if err := flush(true); err != nil {
		w.cfg.Logf("fetch %s: %v", req.Set, err)
	}
}

// handleGetSetPages implements the Fig 2 scan protocol: storage threads pin
// pages ahead (bounded by PinWindow), stream their shared-memory metadata,
// and unpin each page when the computation acknowledges it with PageDone.
func (w *Worker) handleGetSetPages(c *conn, req GetSetPagesReq) {
	fail := func(err error) { c.send(PageMeta{NoMorePage: true, Err: err.Error()}) }
	if err := w.checkAuth(req.Auth); err != nil {
		fail(err)
		return
	}
	if err := w.closeWriter(req.Set); err != nil {
		fail(err)
		return
	}
	set, ok := w.pool.GetSet(req.Set)
	if !ok {
		fail(fmt.Errorf("cluster: no set %q", req.Set))
		return
	}
	// One iterator over the whole set: its cursor stamps the sequential
	// read and hints the pages ahead of the pin-ahead loop below.
	nums := set.PageNums()
	it := services.PageIteratorsFor(set, nums, 1)[0]
	var (
		mu      sync.Mutex
		live    = make(map[int64]*core.Page, len(nums))
		sem     = make(chan struct{}, w.cfg.PinWindow)
		ackDone = make(chan struct{})
	)
	// Acknowledgement reader: unpin pages the computation has finished.
	// It exits — closing ackDone — when the scan's handshake completes or
	// the connection dies; after that nothing drains sem.
	go func() {
		defer close(ackDone)
		for {
			msg, err := c.recv()
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
					w.cfg.Logf("scan ack: %v", err)
				}
				return
			}
			pd, ok := msg.(PageDone)
			if !ok {
				w.cfg.Logf("scan ack: unexpected %T during scan", msg)
				return
			}
			if pd.PageNum < 0 {
				// End-of-scan handshake: all pages were acknowledged in
				// order on this connection, so nothing is left pinned.
				// Confirm so the proxy can return.
				c.send(OKResp{})
				return
			}
			mu.Lock()
			p := live[pd.PageNum]
			delete(live, pd.PageNum)
			mu.Unlock()
			if p != nil {
				if err := set.Unpin(p, false); err != nil {
					w.cfg.Logf("scan unpin %d: %v", pd.PageNum, err)
				}
				<-sem
			}
		}
	}()

	aborted := false
pinAhead:
	for {
		select {
		case sem <- struct{}{}:
		case <-ackDone:
			// The client went away mid-scan (its callback failed and it
			// closed the connection): no acknowledgement will ever free a
			// window slot, so stop pinning and fall through to the cleanup.
			aborted = true
			break pinAhead
		}
		p, err := it.Next()
		if err != nil {
			fail(err)
			aborted = true
			break
		}
		if p == nil {
			break
		}
		mu.Lock()
		live[p.Num()] = p
		mu.Unlock()
		if err := c.send(PageMeta{PageNum: p.Num(), Offset: p.Offset(), Size: p.Size()}); err != nil {
			aborted = true
			break
		}
	}
	if !aborted {
		c.send(PageMeta{NoMorePage: true})
	}
	// Wait for the computation to finish (connection closes) and release
	// anything still pinned.
	<-ackDone
	mu.Lock()
	for _, p := range live {
		_ = set.Unpin(p, false)
	}
	live = nil
	mu.Unlock()
	set.SetCurrentOp(core.OpNone)
}

func (w *Worker) handlePinPage(req PinPageReq) PinPageResp {
	if err := w.checkAuth(req.Auth); err != nil {
		return PinPageResp{Err: err.Error()}
	}
	set, ok := w.pool.GetSet(req.Set)
	if !ok {
		return PinPageResp{Err: fmt.Sprintf("cluster: no set %q", req.Set)}
	}
	p, err := set.NewPage()
	if err != nil {
		return PinPageResp{Err: err.Error()}
	}
	w.mu.Lock()
	m := w.pinned[req.Set]
	if m == nil {
		m = make(map[int64]*core.Page)
		w.pinned[req.Set] = m
	}
	m[p.Num()] = p
	w.mu.Unlock()
	return PinPageResp{PageNum: p.Num(), Offset: p.Offset(), Size: p.Size()}
}

func (w *Worker) handleUnpinPage(req UnpinPageReq) OKResp {
	if err := w.checkAuth(req.Auth); err != nil {
		return OKResp{Err: err.Error()}
	}
	set, ok := w.pool.GetSet(req.Set)
	if !ok {
		return OKResp{Err: fmt.Sprintf("cluster: no set %q", req.Set)}
	}
	w.mu.Lock()
	p := w.pinned[req.Set][req.PageNum]
	delete(w.pinned[req.Set], req.PageNum)
	w.mu.Unlock()
	if p == nil {
		return OKResp{Err: fmt.Sprintf("cluster: page %d of %q not pinned via proxy", req.PageNum, req.Set)}
	}
	if err := set.Unpin(p, req.Dirty); err != nil {
		return OKResp{Err: err.Error()}
	}
	return OKResp{}
}

func (w *Worker) handleDropSet(req DropSetReq) OKResp {
	if err := w.checkAuth(req.Auth); err != nil {
		return OKResp{Err: err.Error()}
	}
	if err := w.closeWriter(req.Set); err != nil {
		return OKResp{Err: err.Error()}
	}
	set, ok := w.pool.GetSet(req.Set)
	if !ok {
		return OKResp{Err: fmt.Sprintf("cluster: no set %q", req.Set)}
	}
	if err := w.pool.DropSet(set); err != nil {
		return OKResp{Err: err.Error()}
	}
	return OKResp{}
}

func (w *Worker) handleSetStats(req SetStatsReq) SetStatsResp {
	if err := w.checkAuth(req.Auth); err != nil {
		return SetStatsResp{Err: err.Error()}
	}
	set, ok := w.pool.GetSet(req.Set)
	if !ok {
		return SetStatsResp{Err: fmt.Sprintf("cluster: no set %q", req.Set)}
	}
	return SetStatsResp{
		NumPages:      set.NumPages(),
		Resident:      set.ResidentPages(),
		ResidentBytes: set.ResidentBytes(),
		Entitlement:   set.Entitlement(),
		DiskBytes:     set.DiskBytes(),
		SpillWrites:   set.SpillWrites(),
		LoadReads:     set.LoadReads(),
		ZoneMapChecks: set.ZoneMapChecks(),
		ZoneMapSkips:  set.ZoneMapSkips(),
		IndexChecks:   set.IndexChecks(),
		IndexHits:     set.IndexHits(),
	}
}

func (w *Worker) handleNodeStats(req NodeStatsReq) NodeStatsResp {
	if err := w.checkAuth(req.Auth); err != nil {
		return NodeStatsResp{Err: err.Error()}
	}
	stats := w.pool.Stats()
	return NodeStatsResp{
		Nodes:            w.pool.NUMANodes(),
		Shards:           w.pool.AllocatorShards(),
		NodeUsedBytes:    w.pool.NodeUsedBytes(),
		CrossNodeSteals:  stats.CrossNodeSteals.Load(),
		PrefetchesIssued: stats.PrefetchesIssued.Load(),
		PrefetchHits:     stats.PrefetchHits.Load(),
		PrefetchWasted:   stats.PrefetchWasted.Load(),
		LoadsInFlight:    stats.LoadsInFlight.Load(),
		ZoneMapChecks:    stats.ZoneMapChecks.Load(),
		ZoneMapSkips:     stats.ZoneMapSkips.Load(),
		IndexChecks:      stats.IndexChecks.Load(),
		IndexHits:        stats.IndexHits.Load(),
	}
}
