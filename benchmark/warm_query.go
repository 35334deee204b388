package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"pangea/internal/core"
	"pangea/internal/disk"
	"pangea/internal/query"
	"pangea/internal/services"
)

// warm_query: one pool that holds the whole fact table twice (columnar and
// row), one unthrottled drive that is never touched, and two closed-loop
// clients running a seeded battery of ScanSpec queries. CPU-bound by
// construction: the query kernels, the side indexes, page decode and the
// Pin/Unpin hit path do all the work, and the evictor, pfs and disk do none,
// which makes it the bypass workload for every I/O optimisation.

// The four query types of the battery, in the order their latencies are kept.
const (
	qRowscan = iota
	qAgg
	qRange
	qPoint
	numQueryTypes
)

var (
	queryTypeNames = [numQueryTypes]string{"rowscan", "agg", "range", "point"}
	querySpanNames = [numQueryTypes]string{"query.rowscan", "query.agg", "query.range", "query.point"}
)

var factSchema = services.MakeSchema([]string{"key", "date", "cat", "val", "pad"}, factWidths)

type warmState struct {
	f        *facts
	arr      *disk.Array
	pool     *core.BufferPool
	col, row *core.LocalitySet
}

// tally is one scan thread's running result. Callbacks index a slice of them
// by their thread argument; a counter shared between threads would race.
type tally struct {
	n   int64
	sum float64
	_   [48]byte // keep neighbouring threads' tallies on separate cache lines
}

// check adds the threads' tallies up and compares them with the generator's
// answer.
func check(ts []tally, wantN int64, wantSum float64) error {
	var n int64
	var sum float64
	for i := range ts {
		n += ts[i].n
		sum += ts[i].sum
	}
	if n != wantN || sum != wantSum {
		return fmt.Errorf("matched %d rows totalling %v, want %d totalling %v", n, sum, wantN, wantSum)
	}
	return nil
}

func buildWarm(rc *runCtx, dir string, ingest *[]float64) (*warmState, error) {
	st := &warmState{f: generateFacts(rc.sz.wqRows, rc.sz.wqDates, rc.seed)}
	var err error
	if st.arr, err = disk.NewArray(dir, 1, disk.Unthrottled()); err != nil {
		return nil, err
	}
	if st.pool, err = core.NewPool(core.PoolConfig{Memory: rc.sz.wqPool, Array: st.arr}); err != nil {
		return nil, err
	}
	st.col, err = st.pool.CreateSet(core.SetSpec{Name: "facts_col", PageSize: rc.sz.pageSize,
		Layout: core.LayoutColumnar, Columns: factWidths})
	if err != nil {
		return nil, err
	}
	if st.row, err = st.pool.CreateSet(core.SetSpec{Name: "facts_row", PageSize: rc.sz.pageSize}); err != nil {
		return nil, err
	}
	// The two layouts cost differently, so a set-up yields one sample: both.
	var both float64
	for _, set := range []*core.LocalitySet{st.col, st.row} {
		both += rc.op(mainSlot, "ingest "+set.Name(), func() error { return st.ingestFacts(set) })
	}
	*ingest = append(*ingest, both)
	return st, nil
}

// ingestFacts writes the table through one SeqWriter that carries both side
// indexes on its hooks: a zone map with a bloom filter on key, and a
// microindex on key.
func (st *warmState) ingestFacts(set *core.LocalitySet) error {
	w := services.NewSeqWriter(set)
	zspec := services.ZoneMapSpec{Schema: factSchema, BloomCols: []int{factColKey}}
	if _, err := services.AttachZoneMap(w, zspec); err != nil {
		return err
	}
	mspec := services.MicroindexSpec{Schema: factSchema, Cols: []int{factColKey}}
	if _, err := services.AttachMicroindex(w, mspec); err != nil {
		return err
	}
	for i := 0; i < st.f.n; i++ {
		if err := w.Add(st.f.row(i)); err != nil {
			_ = w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	if got := w.Count(); got != int64(st.f.n) {
		return fmt.Errorf("wrote %d rows, want %d", got, st.f.n)
	}
	return nil
}

func (st *warmState) teardown(rc *runCtx) {
	for _, set := range []*core.LocalitySet{st.col, st.row} {
		rc.op(mainSlot, "drop "+set.Name(), func() error { return st.pool.DropSet(set) })
	}
	_ = st.arr.RemoveAll()
}

func rowVal(r []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(r[12:20])) }

// scanRows runs a predicate over facts_row on one thread and checks the
// matching rows' count and val total.
func (st *warmState) scanRows(pred query.Predicate, wantN int64, wantSum float64) error {
	ts := make([]tally, 1)
	spec := query.ScanSpec{Set: st.row, Threads: len(ts), Schema: factSchema, Pred: pred}
	err := spec.Run(func(thread int, r query.Row) error {
		ts[thread].n++
		ts[thread].sum += rowVal(r)
		return nil
	})
	if err != nil {
		return err
	}
	return check(ts, wantN, wantSum)
}

// scanBatches is scanRows over facts_col through the batch kernels.
func (st *warmState) scanBatches(pred query.Predicate, wantN int64, wantSum float64) error {
	ts := make([]tally, 1)
	spec := query.ScanSpec{Set: st.col, Threads: len(ts), Pred: pred}
	err := spec.RunBatches(func(thread int, b *query.Batch) error {
		vals := b.Col(factColVal)
		var s float64
		for _, r := range b.Sel() {
			s += math.Float64frombits(binary.LittleEndian.Uint64(vals[int(r)*8:]))
		}
		ts[thread].n += int64(b.Selected())
		ts[thread].sum += s
		return nil
	})
	if err != nil {
		return err
	}
	return check(ts, wantN, wantSum)
}

func catPred() query.Predicate {
	return query.ColRange{Col: factColCat, Lo: 0, Hi: factCatCut}
}

// warmClient is one closed-loop client's record of the measured loop.
type warmClient struct {
	slot   int
	sb     *spanBuf
	lat    [numQueryTypes][]float64 // seconds
	rounds []float64                // wall of each round, seconds
	traced []bool                   // whether that round recorded spans
}

// round runs the battery once. The parameters of its range and point queries
// come from the run seed, the client and the round number.
func (c *warmClient) round(rc *runCtx, st *warmState, r int, record bool) {
	sb := c.sb
	if !rc.tracedRound(r) || !record {
		sb = nil
	}
	rg := newRng(rc.seed ^ uint64(c.slot+1)<<40 ^ uint64(r+1)<<8)
	roundStart := time.Now()
	root := sb.begin("bench.round", 0, int64(r))
	query1 := func(typ int, fn func() error) {
		sp := sb.begin(querySpanNames[typ], root.id(), int64(r))
		d := rc.op(c.slot, queryTypeNames[typ], fn)
		sp.end()
		if record {
			c.lat[typ] = append(c.lat[typ], d)
		}
	}
	f := st.f
	window := f.numDates() / 100
	if window < 1 {
		window = 1
	}
	for i := 0; i < rc.sz.wqRowscans; i++ {
		query1(qRowscan, func() error { return st.scanRows(catPred(), f.catCount, f.catSum) })
	}
	for i := 0; i < rc.sz.wqAggs; i++ {
		query1(qAgg, func() error { return st.scanBatches(catPred(), f.catCount, f.catSum) })
	}
	for i := 0; i < rc.sz.wqRanges; i++ {
		lo := rg.intn(f.numDates() - window + 1)
		n, s := f.dateWindow(lo, lo+window)
		pred := query.ColRange{Col: factColDate, Lo: uint64(lo), Hi: uint64(lo + window)}
		query1(qRange, func() error { return st.scanRows(pred, n, s) })
	}
	for i := 0; i < rc.sz.wqPoints; i++ {
		row := rg.intn(f.n)
		pred := query.ColEq{Col: factColKey, V: f.key(row)}
		query1(qPoint, func() error { return st.scanBatches(pred, 1, f.val(row)) })
	}
	root.end()
	if record {
		c.rounds = append(c.rounds, time.Since(roundStart).Seconds())
		c.traced = append(c.traced, sb != nil)
	}
}

func runWarmQuery(rc *runCtx) error {
	var ingest []float64 // every set-up's ingest wall (both sets), not only the last one's
	st, setupS, err := setupMedian(rc,
		func(dir string) (*warmState, error) { return buildWarm(rc, dir, &ingest) },
		func(st *warmState) { st.teardown(rc) })
	if err != nil {
		return err
	}
	defer st.teardown(rc)

	clients := make([]*warmClient, rc.sz.clients)
	for i := range clients {
		clients[i] = &warmClient{slot: i, sb: rc.tr.buf()}
	}
	_ = parallel(len(clients), func(i int) error {
		for r := 0; r < rc.sz.wqWarmup; r++ {
			clients[i].round(rc, st, r, false)
		}
		return nil
	})
	poolBefore, drivesBefore := snapshotPool(st.pool), snapshotDrives(st.arr)
	idxHits := st.col.IndexHits()
	zmChecks, zmSkips := st.row.ZoneMapChecks(), st.row.ZoneMapSkips()
	_ = parallel(len(clients), func(i int) error {
		for r, start := 0, time.Now(); rc.keepGoing(r, start); r++ {
			clients[i].round(rc, st, r, true)
		}
		return nil
	})

	var lat [numQueryTypes][]float64
	var rounds []float64
	var traced []bool
	for _, c := range clients {
		for t := range lat {
			lat[t] = append(lat[t], c.lat[t]...)
		}
		rounds, traced = append(rounds, c.rounds...), append(traced, c.traced...)
	}
	setBytes := float64(st.f.n * factRowSize)
	scanned := float64(len(lat[qRowscan])+len(lat[qAgg])) * setBytes
	drives := snapshotDrives(st.arr).minus(drivesBefore)

	rc.e2e["setup_s"] = setupS
	rc.e2e["round_p50_ms"] = median(rounds) * 1e3
	rc.e2e["io_amp"] = 1 + drives.bytes()/scanned
	rc.e2e["pool_peak_mb"] = float64(st.pool.PeakBytes()) / mb
	if rc.tr == nil {
		return nil
	}

	nRounds := float64(len(rounds))
	rc.poolCounters(snapshotPool(st.pool).minus(poolBefore), nRounds)
	rc.driveCounters(drives, nRounds)
	for t, name := range queryTypeNames {
		ms := scale(lat[t], 1e3)
		rc.layer["query."+name+"_p50_ms"] = median(ms)
		tail := 95.0
		if t == qPoint {
			tail = 99 // a thousand lookups a round leave room for it
		}
		rc.layer[fmt.Sprintf("query.%s_p%.0f_ms", name, tail)] = percentile(ms, tail)
	}
	rc.layer["query.agg_ns_per_row"] = median(lat[qAgg]) * 1e9 / float64(st.f.n)
	rc.layer["query.rowscan_ns_per_row"] = median(lat[qRowscan]) * 1e9 / float64(st.f.n)
	rc.layer["query.point_pages_per_lookup"] = ratio(float64(st.col.IndexHits()-idxHits), float64(len(lat[qPoint])))
	// facts_row's zone map is consulted by the rowscans too; they check every
	// page and skip none, so what they added is known and comes off.
	rangeChecks := float64(st.row.ZoneMapChecks()-zmChecks) - float64(st.row.NumPages())*float64(len(lat[qRowscan]))
	rc.layer["query.range_pages_kept_frac"] = 1 - ratio(float64(st.row.ZoneMapSkips()-zmSkips), rangeChecks)
	rc.layer["services.index_add_ns"] = median(ingest) * 1e9 / float64(2*st.f.n)
	rc.layer["services.ingest_mb_s"] = 2 * setBytes / mb / median(ingest)
	rc.layer["bench.rounds"] = nRounds
	rc.layer["bench.trace_overhead_frac"] = traceOverhead(rounds, traced)

	// The hit-path probe runs on every client at once, as the rowscans it is
	// compared with did: two scans share the memory bus.
	hits := make([]hitPathProbe, len(clients))
	err = parallel(len(clients), func(i int) (err error) {
		hits[i], err = probeHitPath(st.row, rc.sz.probePasses)
		return err
	})
	if err != nil {
		return err
	}
	var pin, decode float64
	for _, h := range hits {
		pin, decode = pin+h.pin/float64(len(hits)), decode+h.decode/float64(len(hits))
	}
	rc.layer["core.pin_hit_ns"] = pin * 1e9 / float64(hits[0].pages)
	rc.layer["services.walk_ns_per_rec"] = decode * 1e9 / float64(hits[0].records)
	rc.layer["query.rowscan_self_frac"] = 1 - (pin+decode)/median(lat[qRowscan])
	openNs, err := probeColumnarOpen(st.col, rc.sz.probePasses)
	if err != nil {
		return err
	}
	rc.layer["services.columnar_open_ns"] = openNs
	rc.layer["memory.alloc_free_ns"] = probeAllocFree(rc.sz.wqPool, rc.sz.pageSize, rc.sz.probeIters)
	rc.layer["pfs.page_rw_us"], err = probePageRW(rc.dir, rc.sz.pageSize, rc.sz.probeIters)
	return err
}
