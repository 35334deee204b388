package exp

import (
	"errors"
	"fmt"
	"time"

	"pangea/internal/core"
	"pangea/internal/layered"
	"pangea/internal/paging"
	"pangea/internal/query"
	"pangea/internal/services"
)

// mkObjects builds the 80-byte character-array objects of §9.2.1.
func mkObjects(n int) [][]byte {
	out := make([][]byte, n)
	base := make([]byte, 80)
	for i := range base {
		base[i] = byte('a' + i%26)
	}
	for i := range out {
		obj := make([]byte, 80)
		copy(obj, base)
		obj[0] = byte(i)
		out[i] = obj
	}
	return out
}

// sumBytes is the per-object computation of the scan phase.
func sumBytes(rec []byte) int64 {
	var s int64
	for _, b := range rec {
		s += int64(b)
	}
	return s
}

// seqPageSize is the page size of the sequential micro-benchmark's set.
const seqPageSize = 512 << 10

// seqCounts returns the object-count sweep for Figs 7–9: the paper's 50M to
// 300M objects (4–24 GB) scaled to cross the same memory boundary.
func seqCounts(o Options) ([]int, int64) {
	if o.Quick {
		return []int{20000, 40000, 60000}, 2 << 20 // boundary near 28k objects
	}
	// 50k..300k objects of ~84 framed bytes = 4..25 MB vs a 12 MB pool:
	// the boundary falls between 100k and 150k, like 100M vs 150M in Fig 7.
	return []int{50000, 100000, 150000, 200000, 250000, 300000}, 12 << 20
}

// pangeaSeqRun writes objs into a locality set of a fresh pool over drives
// calibrated drives, scans it scanIters times with two threads, then drops
// it.
func pangeaSeqRun(o Options, tag string, drives int, cfg core.PoolConfig, pageSize int64, durability core.DurabilityType, objs [][]byte) ([]string, error) {
	bp, done, err := newPool(o, tag, drives, diskConfig(), cfg)
	if err != nil {
		return nil, err
	}
	defer done()
	set, err := bp.CreateSet(core.SetSpec{Name: "t", PageSize: pageSize, Durability: durability})
	if err != nil {
		return nil, err
	}
	cells, err := writeThenScan(func() error { return services.WriteAll(set, objs) }, func() error {
		var sinks [2]int64 // one a scan thread
		return (query.ScanSpec{Set: set, Threads: len(sinks)}).Run(func(th int, rec query.Row) error {
			sinks[th] += sumBytes(rec)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return cells, bp.DropSet(set)
}

// osvmSeqRun is pangeaSeqRun on OS virtual memory: malloc and write every
// object, then read them back, paging through a swap file on one drive.
func osvmSeqRun(o Options, tag string, mem int64, objs [][]byte) ([]string, error) {
	arr, done, err := newDrives(o, tag, 1, diskConfig())
	if err != nil {
		return nil, err
	}
	defer done()
	vm := layered.NewOSVM(arr.Disk(0), mem)
	defer vm.FreeAll()
	addrs := make([]int64, len(objs))
	buf := make([]byte, 80)
	return writeThenScan(func() error {
		for i, obj := range objs {
			addrs[i] = vm.Malloc(int64(len(obj)))
			if err := vm.Write(addrs[i], obj); err != nil {
				return err
			}
		}
		return nil
	}, func() error {
		var sink int64
		for _, a := range addrs {
			if err := vm.Read(a, buf); err != nil {
				return err
			}
			sink += sumBytes(buf)
		}
		_ = sink
		return nil
	})
}

// alluxioSeqRun is pangeaSeqRun on the Alluxio in-memory FS, which fails
// with ErrAlluxioFull beyond its memory.
func alluxioSeqRun(mem int64, objs [][]byte) ([]string, error) {
	a := layered.NewAlluxio(mem)
	a.Create("t")
	return writeThenScan(func() error {
		for _, obj := range objs {
			if err := a.WriteObject("t", obj); err != nil {
				return err
			}
		}
		return nil
	}, func() error {
		var sink int64
		err := a.Scan("t", func(obj []byte) error {
			sink += sumBytes(obj)
			return nil
		})
		_ = sink
		return err
	})
}

// osfsSeqRun is pangeaSeqRun on the OS file system: the objects written back
// to back through the buffer cache onto one drive and synced, then read back
// 80 bytes at a time.
func osfsSeqRun(o Options, tag string, mem int64, objs [][]byte) ([]string, error) {
	arr, done, err := newDrives(o, tag, 1, diskConfig())
	if err != nil {
		return nil, err
	}
	defer done()
	fs := layered.NewOSFS(arr.Disk(0), mem)
	var off int64
	buf := make([]byte, 80)
	return writeThenScan(func() error {
		for _, obj := range objs {
			if err := fs.WriteAt("t", obj, off); err != nil {
				return err
			}
			off += int64(len(obj))
		}
		return fs.Sync("t")
	}, func() error {
		var sink int64
		for p := int64(0); p < off; p += 80 {
			if err := fs.ReadAt("t", buf, p); err != nil {
				return err
			}
			sink += sumBytes(buf)
		}
		_ = sink
		return nil
	})
}

// hdfsSeqRun is pangeaSeqRun on HDFS over drives data drives.
func hdfsSeqRun(o Options, tag string, drives int, mem int64, objs [][]byte) ([]string, error) {
	arr, done, err := newDrives(o, tag, drives, diskConfig())
	if err != nil {
		return nil, err
	}
	defer done()
	h := layered.NewHDFS(arr, mem)
	h.Create("t")
	return writeThenScan(func() error {
		for _, obj := range objs {
			if err := h.Append("t", obj); err != nil {
				return err
			}
		}
		return h.Sync("t")
	}, func() error {
		var sink int64
		err := h.Scan("t", func(chunk []byte) error {
			sink += sumBytes(chunk)
			return nil
		})
		_ = sink
		return err
	})
}

// Fig7 compares sequential access to transient data: Pangea write-back
// with one and two disks, OS virtual memory (with page stealing), and the
// Alluxio in-memory FS (which cannot exceed its memory).
func Fig7(o Options) (*Table, error) {
	counts, mem := seqCounts(o)
	t := &Table{
		ID:     "fig7",
		Title:  "sequential access, transient data (ms; write + avg of 5 scans)",
		Header: []string{"objects", "pangea-wb-1d write", "pangea-wb-1d read", "pangea-wb-2d write", "pangea-wb-2d read", "osvm write", "osvm read", "alluxio write", "alluxio read"},
	}
	for _, n := range counts {
		objs := mkObjects(n)
		row := []string{fmt.Sprintf("%d", n)}
		for _, disks := range []int{1, 2} {
			cells, err := pangeaSeqRun(o, fmt.Sprintf("fig7-p%dd-%d", disks, n), disks, core.PoolConfig{Memory: mem}, seqPageSize, core.WriteBack, objs)
			if err != nil {
				return nil, err
			}
			row = append(row, cells...)
		}
		cells, err := osvmSeqRun(o, fmt.Sprintf("fig7-vm-%d", n), mem, objs)
		if err != nil {
			return nil, err
		}
		row = append(row, cells...)
		if cells, err = alluxioSeqRun(mem, objs); errors.Is(err, layered.ErrAlluxioFull) {
			cells, err = []string{"FAIL", "FAIL"}, nil
		}
		if err != nil {
			return nil, err
		}
		t.AddRow(append(row, cells...)...)
	}
	t.Notes = append(t.Notes,
		"paper Fig 7: Pangea ≈ OS VM inside memory, 5.4–7× faster beyond it; Alluxio slowest in-memory and cannot exceed memory")
	return t, nil
}

// Fig8 compares sequential access to persistent data: Pangea write-through
// (1/2 disks) vs the OS file system vs HDFS (1/2 disks).
func Fig8(o Options) (*Table, error) {
	counts, mem := seqCounts(o)
	t := &Table{
		ID:     "fig8",
		Title:  "sequential access, persistent data (ms; write + avg of 5 scans)",
		Header: []string{"objects", "pangea-wt-1d write", "pangea-wt-1d read", "pangea-wt-2d write", "pangea-wt-2d read", "osfs write", "osfs read", "hdfs-1d write", "hdfs-1d read", "hdfs-2d write", "hdfs-2d read"},
	}
	for _, n := range counts {
		objs := mkObjects(n)
		row := []string{fmt.Sprintf("%d", n)}
		for _, disks := range []int{1, 2} {
			cells, err := pangeaSeqRun(o, fmt.Sprintf("fig8-p%dd-%d", disks, n), disks, core.PoolConfig{Memory: mem}, seqPageSize, core.WriteThrough, objs)
			if err != nil {
				return nil, err
			}
			row = append(row, cells...)
		}
		cells, err := osfsSeqRun(o, fmt.Sprintf("fig8-fs-%d", n), mem, objs)
		if err != nil {
			return nil, err
		}
		row = append(row, cells...)
		for _, disks := range []int{1, 2} {
			cells, err := hdfsSeqRun(o, fmt.Sprintf("fig8-h%dd-%d", disks, n), disks, mem, objs)
			if err != nil {
				return nil, err
			}
			row = append(row, cells...)
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper Fig 8: comparable write latency across systems; Pangea reads 1.9–2.7× faster than OS FS and 1.5–3.5× faster than HDFS")
	return t, nil
}

// policySet is the Fig 9/10 policy lineup.
var policySet = []namedPolicy{
	{"data-aware", func() core.Policy { return core.NewDataAware() }},
	{"DBMIN-tuned", func() core.Policy { return paging.NewDBMINTuned() }},
	{"MRU", func() core.Policy { return paging.NewMRU() }},
	{"LRU", func() core.Policy { return paging.NewLRU() }},
}

// Fig9 compares the paging policies on the sequential micro-benchmark for
// both durability classes, at object counts beyond memory.
func Fig9(o Options) (*Table, error) {
	counts, mem := seqCounts(o)
	counts = counts[len(counts)-3:] // the beyond-memory sizes, as in Fig 9
	// What separates the policies is how many frames of the set a looping
	// scan keeps: at the quick shape's 2 MiB pool, 512 KiB pages would leave
	// four frames for a ten-page set and the effect within noise, so the
	// quick shape holds the same bytes in 64 KiB pages (32 frames).
	pageSize := int64(seqPageSize)
	if o.Quick {
		pageSize = 64 << 10
	}
	t := &Table{
		ID:     "fig9",
		Title:  "page replacement for sequential access (ms)",
		Header: []string{"durability", "objects"},
	}
	for _, p := range policySet {
		t.Header = append(t.Header, p.Name+" write", p.Name+" read")
	}
	for _, durability := range []core.DurabilityType{core.WriteThrough, core.WriteBack} {
		for _, n := range counts {
			objs := mkObjects(n)
			row := []string{durability.String(), fmt.Sprintf("%d", n)}
			for _, p := range policySet {
				cells, err := pangeaSeqRun(o, fmt.Sprintf("fig9-%s-%s-%d", durability, p.Name, n), 1,
					core.PoolConfig{Memory: mem, Policy: p.Policy()}, pageSize, durability, objs)
				if err != nil {
					return nil, err
				}
				row = append(row, cells...)
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"paper Fig 9: data-aware/DBMIN-tuned/MRU read 1.6–2.5× faster than LRU; data-aware up to 50% over LRU/MRU and 20% over tuned DBMIN",
		"write-back reads are slower than write-through reads (transient pages still spill during the read phase)")
	return t, nil
}

// shuffleResult is what one shuffleRun measured: the two phases' wall time
// and the drive traffic of the read phase alone, in pages (every drive
// operation of a shuffle moves one page).
type shuffleResult struct {
	write, read                     time.Duration
	readPhaseWrites, readPhaseReads int64
}

// times renders the write and read phases' milliseconds as table cells.
func (r shuffleResult) times() []string { return []string{ms(r.write), ms(r.read)} }

// counts renders the read phase's page writes and page reads as table cells.
func (r shuffleResult) counts() []string {
	return []string{fmt.Sprintf("%d", r.readPhaseWrites), fmt.Sprintf("%d", r.readPhaseReads)}
}

// shuffleRun drives one shuffle write+read cycle on a fresh pool over drives
// calibrated drives and drops the shuffle again, whether or not the cycle
// succeeded. Shuffle pages are sized to a small fraction of the pool:
// concurrent writers can keep a few large pages per partition pinned at once,
// and those pins must never cover the whole pool. pageSize/8 divides the
// page, so each page holds all 8 small pages.
func shuffleRun(o Options, tag string, drives int, cfg core.PoolConfig, mbPerThread int) (res shuffleResult, err error) {
	bp, done, err := newPool(o, tag, drives, diskConfig(), cfg)
	if err != nil {
		return res, err
	}
	defer done()
	const writers, partitions = 4, 4
	pageSize := (bp.Capacity() / 48) &^ ((64 << 10) - 1)
	if pageSize < 64<<10 {
		pageSize = 64 << 10
	}
	sh, err := services.NewShuffle(bp, "sh", partitions, pageSize, int(pageSize/8))
	if err != nil {
		return res, err
	}
	defer func() {
		if derr := sh.Drop(); err == nil {
			err = derr
		}
	}()
	// wait collects one outcome per goroutine — all of them, so nothing is
	// still pinning a page when the shuffle is dropped — and keeps the first
	// error.
	errs := make(chan error, writers)
	wait := func(n int) (first error) {
		for i := 0; i < n; i++ {
			if e := <-errs; e != nil && first == nil {
				first = e
			}
		}
		return first
	}
	rec := make([]byte, 100)
	perThread := mbPerThread << 20 / len(rec)
	start := time.Now()
	for w := 0; w < writers; w++ {
		go func(w int) {
			bufs := sh.Writer()
			r := make([]byte, len(rec))
			var err error
			for i := 0; i < perThread && err == nil; i++ {
				r[0] = byte(i)
				err = bufs[(w+i)%partitions].Add(r)
			}
			if cerr := services.CloseWriters(bufs); err == nil {
				err = cerr
			}
			errs <- err
		}(w)
	}
	err = wait(writers)
	if cerr := sh.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return res, err
	}
	res.write = time.Since(start)

	before := bp.Array().Stats()
	start = time.Now()
	for p := 0; p < partitions; p++ {
		go func(p int) {
			var sink int64
			errs <- sh.ReadPartition(p, 1, func(rec []byte) error {
				sink += sumBytes(rec)
				return nil
			})
			_ = sink
		}(p)
	}
	if err := wait(partitions); err != nil {
		return res, err
	}
	res.read = time.Since(start)
	after := bp.Array().Stats()
	res.readPhaseWrites, res.readPhaseReads = after.Writes-before.Writes, after.Reads-before.Reads
	return res, nil
}

// Fig10 compares the paging policies on the shuffle workload.
func Fig10(o Options) (*Table, error) {
	sweep := []int{4, 5, 6}
	mem := int64(16 << 20)
	if o.Quick {
		sweep = []int{2, 3}
		mem = 6 << 20
	}
	t := &Table{
		ID:     "fig10",
		Title:  "page replacement for shuffle (ms; 4 writers, 4 readers)",
		Header: []string{"MB/thread"},
	}
	for _, p := range policySet {
		t.Header = append(t.Header, p.Name+" write", p.Name+" read", p.Name+" read-phase writes", p.Name+" read-phase reads")
	}
	for _, mbT := range sweep {
		row := []string{fmt.Sprintf("%d", mbT)}
		for _, p := range policySet {
			res, err := shuffleRun(o, fmt.Sprintf("fig10-%s-%d", p.Name, mbT), 1, core.PoolConfig{Memory: mem, Policy: p.Policy()}, mbT)
			if err != nil {
				return nil, err
			}
			row = append(append(row, res.times()...), res.counts()...)
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper Fig 10: data-aware reads up to 3× faster than LRU, ~10% over tuned DBMIN; ~10% faster writes than LRU/MRU",
		"read-phase writes/reads: pages the drives wrote and read during the read phase. Shuffle partitions are read-once — a page dies at its reader's release, under every policy — so the read phase writes nothing of its own (what it shows is the map's last write-backs landing) and the policies differ on the map side: read-phase reads is what each policy's map left on disk, and the read ms follow it")
	return t, nil
}

// sparkShuffleRun times the simulated Spark shuffle — numCores ×
// numPartitions spill files on one drive — and returns its write and read
// milliseconds.
func sparkShuffleRun(o Options, tag string, mbPerThread int) ([]string, error) {
	arr, done, err := newDrives(o, tag, 1, diskConfig())
	if err != nil {
		return nil, err
	}
	defer done()
	s, err := layered.NewSparkShuffle(arr, 4, 4)
	if err != nil {
		return nil, err
	}
	defer func() { _ = s.Close() }()
	rec := make([]byte, 100)
	perThread := mbPerThread << 20 / len(rec)
	start := time.Now()
	for c := 0; c < 4; c++ {
		for i := 0; i < perThread; i++ {
			if err := s.Write(c, (c+i)%4, rec); err != nil {
				return nil, err
			}
		}
	}
	if err := s.Flush(); err != nil {
		return nil, err
	}
	w := time.Since(start)
	start = time.Now()
	for p := 0; p < 4; p++ {
		var sink int64
		if err := s.ReadPartition(p, func(chunk []byte) error {
			sink += int64(len(chunk))
			return nil
		}); err != nil {
			return nil, err
		}
		_ = sink
	}
	return []string{ms(w), ms(time.Since(start))}, nil
}

// Tab3 compares Spark-style shuffle (numCores × numPartitions spill files)
// with the Pangea shuffle service on one and two disks.
func Tab3(o Options) (*Table, error) {
	sweep := []int{1, 2, 4, 6}
	mem := int64(12 << 20)
	if o.Quick {
		sweep = []int{1, 2}
		mem = 4 << 20
	}
	t := &Table{
		ID:    "tab3",
		Title: "shuffle write/read latency, 4 writers 4 readers (ms)",
		Header: []string{"MB/thread", "spark write", "spark read", "pangea-1d write", "pangea-1d read", "pangea-2d write", "pangea-2d read",
			"pangea-1d read-phase writes", "pangea-1d read-phase reads", "pangea-2d read-phase writes", "pangea-2d read-phase reads"},
	}
	for _, mbT := range sweep {
		spark, err := sparkShuffleRun(o, fmt.Sprintf("tab3-s-%d", mbT), mbT)
		if err != nil {
			return nil, err
		}
		row := append([]string{fmt.Sprintf("%d", mbT)}, spark...)
		// Pangea shuffle, 1 and 2 disks: the timings first, the read phase's
		// page counts in the columns after them.
		var counts []string
		for _, disks := range []int{1, 2} {
			res, err := shuffleRun(o, fmt.Sprintf("tab3-p%dd-%d", disks, mbT), disks, core.PoolConfig{Memory: mem}, mbT)
			if err != nil {
				return nil, err
			}
			row, counts = append(row, res.times()...), append(counts, res.counts()...)
		}
		t.AddRow(append(row, counts...)...)
	}
	t.Notes = append(t.Notes,
		"paper Table 3: Pangea 1.1–1.4× faster shuffle writes and 2.2–27× faster reads than the simulated Spark shuffle",
		"read-phase writes/reads: pages the drives wrote and read during the Pangea read phase — partitions are read-once, so a released page is freed, not spilled: the reduce reads back only what the write phase spilled, and the few writes it shows are the write phase's last write-backs landing")
	return t, nil
}

// hashAggRun times the Pangea hash service counting keys in a fresh pool of
// mem bytes, which spills under memory pressure instead of thrashing.
func hashAggRun(o Options, tag string, mem int64, keys []string) (time.Duration, error) {
	bp, done, err := newPool(o, tag, 1, diskConfig(), core.PoolConfig{Memory: mem})
	if err != nil {
		return 0, err
	}
	defer done()
	// Hash pages sized so the 8 pinned root-partition pages cover only a
	// quarter of the pool.
	hashPage := (mem / 32) &^ ((8 << 10) - 1)
	if hashPage < 8<<10 {
		hashPage = 8 << 10
	}
	set, err := bp.CreateSet(core.SetSpec{Name: "agg", PageSize: hashPage})
	if err != nil {
		return 0, err
	}
	h, err := services.NewInt64HashBuffer(set, 8, services.Sum)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for _, k := range keys {
		if err := h.Upsert([]byte(k), 1); err != nil {
			return 0, err
		}
	}
	if err := h.Close(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// Tab4 compares key-value aggregation: a plain Go map (the STL
// unordered_map analogue), the Pangea hash service, and the Redis-like
// client/server store.
func Tab4(o Options) (*Table, error) {
	sweep := []int{50000, 100000, 200000, 400000}
	mem := int64(8 << 20)
	redisCap := 200000 // beyond this the client/server path is hopeless; cap like the paper's Redis failure
	if o.Quick {
		sweep = []int{20000, 50000}
		mem = 2 << 20
		redisCap = 50000
	}
	t := &Table{
		ID:     "tab4",
		Title:  "key-value pair aggregation (ms)",
		Header: []string{"numKeys", "go map", "pangea hashmap", "redis-like"},
	}
	for _, n := range sweep {
		row := []string{fmt.Sprintf("%d", n)}
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%09d", i)
		}

		// Go map.
		{
			start := time.Now()
			m := make(map[string]int64)
			for _, k := range keys {
				m[k] += 1
			}
			row = append(row, ms(time.Since(start)))
		}

		hash, err := hashAggRun(o, fmt.Sprintf("tab4-%d", n), mem, keys)
		if err != nil {
			return nil, err
		}
		row = append(row, ms(hash))

		// Redis-like client/server.
		if n > redisCap {
			row = append(row, "skipped")
		} else {
			srv, err := layered.NewRedisServer("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			c, err := layered.DialRedis(srv.Addr())
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for _, k := range keys {
				if _, err := c.IncrBy(k, 1); err != nil {
					return nil, err
				}
			}
			row = append(row, ms(time.Since(start)))
			_ = c.Close()
			_ = srv.Close()
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper Table 4: Pangea up to 50× faster than STL unordered_map once it swaps, and up to 30× faster than Redis (client/server round trips)")
	return t, nil
}
