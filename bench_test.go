// Package pangea's top-level benchmarks are the per-layer micros CI gates
// on: allocator, Pin/Unpin, spill and prefetch pipelines, scans, the
// microindex build, hash upserts, the join build and probe, and the
// aggregate fold. The paper's tables and figures are
// printed by `go run ./cmd/pangea-bench [-quick]`, not by benchmarks.
package pangea_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"pangea/internal/core"
	"pangea/internal/disk"
	"pangea/internal/memory"
	"pangea/internal/query"
	"pangea/internal/services"
)

// BenchmarkBatchScan is the batch-vs-row scan microbenchmark: one warm
// pass of a 10%-selectivity scan-filter-sum over the same records in both
// layouts, through the one engine. The row variant is the row adapter
// (ScanSpec{Pred,Schema}.Run: framing walk, date column gathered, range
// kernel, one callback per matching record); the columnar variant runs the
// same kernel over the page's own vector and touches only matching values.
// The gate watches both so neither regresses unnoticed.
func BenchmarkBatchScan(b *testing.B) {
	const pageSize = 64 << 10
	const nRows = 100_000
	widths := []int{8, 2, 8, 46} // key, date, value, payload: 64-byte rows
	schema := services.MakeSchema([]string{"key", "date", "value", "payload"}, widths)
	rows := make([][]byte, nRows)
	flat := make([]byte, nRows*64)
	for i := range rows {
		r := flat[i*64 : (i+1)*64]
		binary.LittleEndian.PutUint64(r[0:8], uint64(i))
		binary.LittleEndian.PutUint16(r[8:10], uint16(i%100))
		binary.LittleEndian.PutUint64(r[10:18], math.Float64bits(float64(i%1000)))
		rows[i] = r
	}
	for _, cfg := range []struct {
		name     string
		columnar bool
	}{{"layout=row", false}, {"layout=columnar", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			arr, err := disk.NewArray(b.TempDir(), 1, disk.Unthrottled())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = arr.RemoveAll() })
			bp, err := core.NewPool(core.PoolConfig{Memory: 64 << 20, Array: arr})
			if err != nil {
				b.Fatal(err)
			}
			spec := core.SetSpec{Name: "facts", PageSize: pageSize}
			if cfg.columnar {
				spec.Layout = core.LayoutColumnar
				spec.Columns = widths
			}
			set, err := bp.CreateSet(spec)
			if err != nil {
				b.Fatal(err)
			}
			if err := services.WriteAll(set, rows); err != nil {
				b.Fatal(err)
			}
			var matched int64
			var sum float64
			scan := func() error {
				matched, sum = 0, 0
				if cfg.columnar {
					return query.ScanSpec{Set: set}.RunBatches(func(_ int, bt *query.Batch) error {
						bt.SelU16Range(1, 0, 10)
						vals := bt.Col(2)
						for _, r := range bt.Sel() {
							sum += math.Float64frombits(binary.LittleEndian.Uint64(vals[int(r)*8:]))
						}
						matched += int64(bt.Selected())
						return nil
					})
				}
				spec := query.ScanSpec{Set: set, Schema: schema, Pred: query.ColRange{Col: 1, Lo: 0, Hi: 10}}
				return spec.Run(func(_ int, r query.Row) error {
					sum += math.Float64frombits(binary.LittleEndian.Uint64(r[10:18]))
					matched++
					return nil
				})
			}
			if err := scan(); err != nil { // prime the cache
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := scan(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if matched != nRows/10 {
				b.Fatalf("matched %d rows, want %d", matched, nRows/10)
			}
			b.SetBytes(int64(nRows) * 64)
		})
	}
}

// BenchmarkWarmScan is the repository benchmark's warm_query battery at the
// query layer's own level: one op is one query of the sub-benchmark's type,
// one thread, over warm_query's 64-byte fact rows (key u64, a permutation;
// date u16, clustered; cat u16 = row mod 100; val f64; pad) loaded warm in
// both layouts through one writer carrying a zone map with a bloom on key and
// a microindex on key, as warm_query's set-up does.
//
//   - point: key = v over the columnar set — one microindex candidate page;
//   - range: a 1 % date window over the row set — zone-map pruned;
//   - agg: cat < 10 over the columnar set's vectors;
//   - rowscan: cat < 10 through the row adapter, every page.
//
// What a scan costs beside its rows (goroutines, batches, page lists) is
// most of point's ns/op and shows in every sub-benchmark's allocs/op.
func BenchmarkWarmScan(b *testing.B) {
	const (
		pageSize    = 256 << 10
		nRows       = 250_000
		nDates      = 500
		rowsPerDate = nRows / nDates
		stride      = 7919 // prime, so row i's key i*stride mod nRows is a permutation
	)
	le := binary.LittleEndian
	widths := []int{8, 2, 2, 8, 44}
	schema := services.MakeSchema([]string{"key", "date", "cat", "val", "pad"}, widths)
	rows := make([][]byte, nRows)
	flat := make([]byte, nRows*64)
	var catRows int64
	for i := range rows {
		r := flat[i*64 : (i+1)*64]
		le.PutUint64(r[0:], uint64(i)*stride%nRows)
		le.PutUint16(r[8:], uint16(i/rowsPerDate))
		le.PutUint16(r[10:], uint16(i%100))
		le.PutUint64(r[12:], math.Float64bits(float64(i%1000)))
		rows[i] = r
		if i%100 < 10 {
			catRows++
		}
	}
	arr, err := disk.NewArray(b.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := core.NewPool(core.PoolConfig{Memory: 64 << 20, Array: arr})
	if err != nil {
		b.Fatal(err)
	}
	load := func(spec core.SetSpec) *core.LocalitySet {
		set, err := bp.CreateSet(spec)
		if err != nil {
			b.Fatal(err)
		}
		w := services.NewSeqWriter(set)
		if _, err := services.AttachZoneMap(w, services.ZoneMapSpec{Schema: schema, BloomCols: []int{0}}); err != nil {
			b.Fatal(err)
		}
		if _, err := services.AttachMicroindex(w, services.MicroindexSpec{Schema: schema, Cols: []int{0}}); err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if err := w.Add(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		return set
	}
	colSet := load(core.SetSpec{Name: "facts_col", PageSize: pageSize, Layout: core.LayoutColumnar, Columns: widths})
	rowSet := load(core.SetSpec{Name: "facts_row", PageSize: pageSize})

	// Each query counts the rows it matched (the batch queries also sum
	// their val column, as warm_query's do); op i's answer is want(i).
	cat := query.ColRange{Col: 2, Lo: 0, Hi: 10}
	var valSum float64
	countBatches := func(set *core.LocalitySet, pred query.Predicate) (n int64, err error) {
		err = query.ScanSpec{Set: set, Pred: pred}.RunBatches(func(_ int, bt *query.Batch) error {
			vals := bt.Col(3)
			for _, r := range bt.Sel() {
				valSum += math.Float64frombits(le.Uint64(vals[int(r)*8:]))
			}
			n += int64(bt.Selected())
			return nil
		})
		return n, err
	}
	countRows := func(pred query.Predicate) (n int64, err error) {
		err = query.ScanSpec{Set: rowSet, Schema: schema, Pred: pred}.Run(func(int, query.Row) error {
			n++
			return nil
		})
		return n, err
	}
	for _, q := range []struct {
		name string
		run  func(i int) (int64, error)
		want func(i int) int64
	}{
		{"point", func(i int) (int64, error) {
			return countBatches(colSet, query.ColEq{Col: 0, V: uint64(i*7+3) % nRows})
		}, func(int) int64 { return 1 }},
		{"range", func(i int) (int64, error) {
			lo := uint64(i*37) % (nDates - 5)
			return countRows(query.ColRange{Col: 1, Lo: lo, Hi: lo + 5})
		}, func(int) int64 { return 5 * rowsPerDate }},
		{"agg", func(int) (int64, error) { return countBatches(colSet, cat) }, func(int) int64 { return catRows }},
		{"rowscan", func(int) (int64, error) { return countRows(cat) }, func(int) int64 { return catRows }},
	} {
		b.Run(q.name, func(b *testing.B) {
			if _, err := q.run(0); err != nil { // warm the pages and the batch pool
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := q.run(i)
				if err != nil {
					b.Fatal(err)
				}
				if n != q.want(i) {
					b.Fatalf("op %d matched %d rows, want %d", i, n, q.want(i))
				}
			}
		})
	}
}

// BenchmarkMicroindexBuild is the microindex's own build cost: one op writes
// a million 16-byte rows (key u64, a permutation, so every key is its own
// posting; val u64) through one SeqWriter carrying a microindex on key, and
// closes it, so the postings are in order when the op ends. The set is
// dropped outside the timer. ns/row is the writer plus the index; B/op and
// allocs/op are what the index costs the Go heap, since pages come from the
// pool.
func BenchmarkMicroindexBuild(b *testing.B) {
	const (
		nRows  = 1_000_000
		stride = 7919 // prime, coprime with nRows
	)
	le := binary.LittleEndian
	widths := []int{8, 8}
	schema := services.MakeSchema([]string{"key", "val"}, widths)
	rows := make([][]byte, nRows)
	flat := make([]byte, nRows*16)
	for i := range rows {
		r := flat[i*16 : (i+1)*16]
		le.PutUint64(r[0:], uint64(i)*stride%nRows)
		le.PutUint64(r[8:], uint64(i))
		rows[i] = r
	}
	arr, err := disk.NewArray(b.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := core.NewPool(core.PoolConfig{Memory: 64 << 20, Array: arr})
	if err != nil {
		b.Fatal(err)
	}
	for _, columnar := range []bool{false, true} {
		name := map[bool]string{false: "layout=row", true: "layout=columnar"}[columnar]
		b.Run(name, func(b *testing.B) {
			spec := core.SetSpec{Name: "keys", PageSize: 256 << 10}
			if columnar {
				spec.Layout, spec.Columns = core.LayoutColumnar, widths
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set, err := bp.CreateSet(spec)
				if err != nil {
					b.Fatal(err)
				}
				w := services.NewSeqWriter(set)
				if _, err := services.AttachMicroindex(w, services.MicroindexSpec{Schema: schema, Cols: []int{0}}); err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if err := w.Add(r); err != nil {
						b.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := bp.DropSet(set); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nRows), "ns/row")
		})
	}
}

// BenchmarkHashUpsert is the hash service's own upsert cost, in the shape of
// shuffle_agg's reduce: one op counts 65 536 8-byte keys, 8 192 distinct in a
// scattered order, into a fresh Int64HashBuffer of 8 roots on 128 KiB pages,
// and closes it. The set stays resident, so ns/upsert is the page-local find,
// insert and fold; creating and dropping the set is outside the timer.
func BenchmarkHashUpsert(b *testing.B) {
	const (
		nUpserts = 1 << 16
		nKeys    = 1 << 13
		stride   = 7919 // prime, coprime with nKeys
	)
	keys := make([][]byte, nUpserts)
	for i := range keys {
		keys[i] = binary.LittleEndian.AppendUint64(nil, uint64(i)*stride%nKeys)
	}
	arr, err := disk.NewArray(b.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := core.NewPool(core.PoolConfig{Memory: 64 << 20, Array: arr})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		set, err := bp.CreateSet(core.SetSpec{Name: "agg", PageSize: 128 << 10})
		if err != nil {
			b.Fatal(err)
		}
		h, err := services.NewInt64HashBuffer(set, 8, services.Sum)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, k := range keys {
			if err := h.Upsert(k, 1); err != nil {
				b.Fatal(err)
			}
		}
		if err := h.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if set.Stats().SpillWrites.Load() != 0 {
			b.Fatal("the hash set spilled")
		}
		if err := bp.DropSet(set); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nUpserts), "ns/upsert")
}

// BenchmarkSpillParallel measures the eviction daemon's spill pipeline
// directly: a producer streams dirty write-back pages through a pool an
// eighth the size of the data, so its rate is the daemon's write-back
// rate. With per-drive writers the ns/op should drop roughly with the
// drive count (the drives share nothing but the producer); the seed's
// serial write-back loop kept 1 and 4 drives at the same speed.
func BenchmarkSpillParallel(b *testing.B) {
	const pageSize = 64 << 10
	const poolPages = 64
	const totalPages = 256
	cfg := disk.Config{ReadMBps: 400, WriteMBps: 400, SeekLatency: 50 * time.Microsecond}
	for _, drives := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("drives=%d", drives), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				arr, err := disk.NewArray(b.TempDir(), drives, cfg)
				if err != nil {
					b.Fatal(err)
				}
				bp, err := core.NewPool(core.PoolConfig{Memory: poolPages * pageSize, Array: arr})
				if err != nil {
					b.Fatal(err)
				}
				set, err := bp.CreateSet(core.SetSpec{Name: "spill", PageSize: pageSize})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for j := 0; j < totalPages; j++ {
					p, err := set.NewPage()
					if err != nil {
						b.Fatal(err)
					}
					p.Bytes()[0] = byte(j)
					if err := set.Unpin(p, true); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if err := bp.DropSet(set); err != nil {
					b.Fatal(err)
				}
				_ = arr.RemoveAll()
			}
			b.SetBytes(int64(totalPages) * pageSize)
		})
	}
}

// BenchmarkScanPrefetch measures the asynchronous read path directly: a
// cold sequential scan through a pool a quarter the size of the data, with
// automatic read-ahead feeding the per-drive read queues. The ns/op is the
// scan's wall time, so it covers hinting, speculative allocation, the
// starved-reclaim handshake with the eviction daemon, and the coalescing
// pin path; at drives=4 it should run several times faster than drives=1,
// and the gate catches a regression in any stage of that pipeline.
func BenchmarkScanPrefetch(b *testing.B) {
	const pageSize = 64 << 10
	const poolPages = 16
	const totalPages = 64
	cfg := disk.Config{ReadMBps: 400, WriteMBps: 400, SeekLatency: 50 * time.Microsecond}
	for _, drives := range []int{1, 4} {
		b.Run(fmt.Sprintf("drives=%d", drives), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				arr, err := disk.NewArray(b.TempDir(), drives, cfg)
				if err != nil {
					b.Fatal(err)
				}
				bp, err := core.NewPool(core.PoolConfig{Memory: poolPages * pageSize, Array: arr})
				if err != nil {
					b.Fatal(err)
				}
				set, err := bp.CreateSet(core.SetSpec{Name: "scan", PageSize: pageSize, Durability: core.WriteThrough})
				if err != nil {
					b.Fatal(err)
				}
				rec := make([]byte, 4<<10)
				w := services.NewSeqWriter(set)
				for set.NumPages() < totalPages {
					if err := w.Add(rec); err != nil {
						b.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
				// Chill: grow a dirty filler until the clean write-through
				// data pages are all evicted, then drop it (no spill on drop).
				filler, err := bp.CreateSet(core.SetSpec{Name: "filler", PageSize: pageSize})
				if err != nil {
					b.Fatal(err)
				}
				for set.ResidentPages() > 0 {
					p, err := filler.NewPage()
					if err != nil {
						b.Fatal(err)
					}
					if err := filler.Unpin(p, false); err != nil {
						b.Fatal(err)
					}
				}
				if err := bp.DropSet(filler); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := services.ScanSet(set, 1, func(int, []byte) error { return nil }); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := bp.DropSet(set); err != nil {
					b.Fatal(err)
				}
				_ = arr.RemoveAll()
			}
			b.SetBytes(int64(totalPages) * pageSize)
		})
	}
}

// BenchmarkShardedAlloc measures allocator contention directly: parallel
// 4 KiB alloc/free against a single TLSF shard (the seed design, every
// allocation behind one mutex) vs one shard per core. Run with
// -cpu 1,2,4,8 to see the scaling curve.
func BenchmarkShardedAlloc(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		shards int
	}{{"shards=1", 1}, {"shards=auto", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			alloc := memory.NewShardedTLSF(memory.NewArena(256<<20), cfg.shards)
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				home := int(next.Add(1))
				for pb.Next() {
					off, err := alloc.AllocAffinity(4<<10, home)
					if err != nil {
						b.Error(err)
						return
					}
					alloc.Free(off)
				}
			})
		})
	}
}

// BenchmarkPoolAllocParallel measures the pool-level allocation path:
// each goroutine appends pages to its own locality set (home-shard routed
// NewPage/Unpin) and recycles the set once it reaches 64 pages, so the
// steady state is allocator traffic, not eviction I/O.
func BenchmarkPoolAllocParallel(b *testing.B) {
	arr, err := disk.NewArray(b.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := core.NewPool(core.PoolConfig{Memory: 256 << 20, Array: arr})
	if err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := next.Add(1)
		gen := 0
		s, err := bp.CreateSet(core.SetSpec{Name: fmt.Sprintf("a%d.%d", w, gen), PageSize: 4 << 10})
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			p, err := s.NewPage()
			if err != nil {
				b.Error(err)
				return
			}
			if err := s.Unpin(p, false); err != nil {
				b.Error(err)
				return
			}
			if s.NumPages() >= 64 {
				if err := bp.DropSet(s); err != nil {
					b.Error(err)
					return
				}
				gen++
				s, err = bp.CreateSet(core.SetSpec{Name: fmt.Sprintf("a%d.%d", w, gen), PageSize: 4 << 10})
				if err != nil {
					b.Error(err)
					return
				}
			}
		}
		_ = bp.DropSet(s)
	})
}

// parallelPool builds a pool with nSets locality sets of pagesPerSet
// resident pages each, sized so the benchmark never evicts: what's measured
// is locking, not I/O.
func parallelPool(b *testing.B, nSets, pagesPerSet int) []*core.LocalitySet {
	b.Helper()
	arr, err := disk.NewArray(b.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := core.NewPool(core.PoolConfig{Memory: 64 << 20, Array: arr})
	if err != nil {
		b.Fatal(err)
	}
	sets := make([]*core.LocalitySet, nSets)
	for i := range sets {
		s, err := bp.CreateSet(core.SetSpec{Name: "s" + string(rune('a'+i)), PageSize: 4 << 10})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < pagesPerSet; j++ {
			p, err := s.NewPage()
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Unpin(p, false); err != nil {
				b.Fatal(err)
			}
		}
		sets[i] = s
	}
	return sets
}

// BenchmarkPoolParallel measures multi-goroutine Pin/Unpin throughput with
// each goroutine on its own locality set. Under the per-set locking model
// this scales with GOMAXPROCS (run with -cpu 1,2,4,8 to see the curve); the
// seed's single pool mutex flat-lined it.
func BenchmarkPoolParallel(b *testing.B) {
	const nSets, pagesPerSet = 16, 16
	sets := parallelPool(b, nSets, pagesPerSet)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s := sets[int(next.Add(1))%nSets]
		i := 0
		for pb.Next() {
			p, err := s.Pin(int64(i % pagesPerSet))
			if err != nil {
				b.Error(err)
				return
			}
			if err := s.Unpin(p, false); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkPoolParallelSharedSet is the contended counterpart: every
// goroutine hammers the same locality set, so all traffic serializes on
// that set's lock — the upper bound of what the old global mutex allowed
// for the whole pool.
func BenchmarkPoolParallelSharedSet(b *testing.B) {
	const pagesPerSet = 16
	sets := parallelPool(b, 1, pagesPerSet)
	s := sets[0]
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1))
		for pb.Next() {
			p, err := s.Pin(int64(i % pagesPerSet))
			if err != nil {
				b.Error(err)
				return
			}
			if err := s.Unpin(p, false); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkJoinBuild is a hash join's build and probe at the join map's own
// layer: 2^18 records with 8-byte keys, each key twice (2^17 distinct), and
// an 8-byte payload go into a fresh map, and then every record's key is
// probed once. The key index is what it measures: the payloads are one
// 8-byte copy into a resident page.
func BenchmarkJoinBuild(b *testing.B) {
	const nRecs = 1 << 18
	keys := make([]uint64, nRecs)
	for i := range keys {
		keys[i] = uint64(i%(nRecs/2)) * 7919
	}
	arr, err := disk.NewArray(b.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := core.NewPool(core.PoolConfig{Memory: 64 << 20, Array: arr})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		set, err := bp.CreateSet(core.SetSpec{Name: "build", PageSize: 128 << 10})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		m, err := services.NewJoinMap(set, len(payload))
		if err != nil {
			b.Fatal(err)
		}
		for r, k := range keys {
			binary.LittleEndian.PutUint64(payload, uint64(r))
			if err := m.Insert(k, payload); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.Seal(); err != nil {
			b.Fatal(err)
		}
		for _, k := range keys {
			if m.Head(k) < 0 {
				b.Fatal("a built key is missing")
			}
		}
		b.StopTimer()
		if m.Keys() != nRecs/2 {
			b.Fatalf("%d distinct keys, want %d", m.Keys(), nRecs/2)
		}
		if err := bp.DropSet(set); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nRecs), "ns/key")
}

// BenchmarkJoinProbe is a miss-heavy probe at the join map's own layer, the
// shape of a semi or anti join against a small filtered build: 1 536 8-byte
// keys go into a fresh map, and then 2^18 keys are probed, 1 % of them
// built. ns/probe is the key index's lookup, hit or miss.
func BenchmarkJoinProbe(b *testing.B) {
	const (
		nBuild  = 1536
		nProbes = 1 << 18
	)
	probes := make([]uint64, nProbes)
	hits := 0
	for i := range probes {
		k := uint64(i) * 7919 // built keys are the multiples of 7919 below nBuild·7919
		if i%100 != 0 {
			k = uint64(nBuild+i) * 7919
		} else {
			k = uint64(i/100%nBuild) * 7919
			hits++
		}
		probes[i] = k
	}
	arr, err := disk.NewArray(b.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := core.NewPool(core.PoolConfig{Memory: 16 << 20, Array: arr})
	if err != nil {
		b.Fatal(err)
	}
	set, err := bp.CreateSet(core.SetSpec{Name: "build", PageSize: 128 << 10})
	if err != nil {
		b.Fatal(err)
	}
	m, err := services.NewJoinMap(set, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := range nBuild {
		if err := m.Insert(uint64(i)*7919, nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Seal(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found := 0
		for _, k := range probes {
			if m.Head(k) >= 0 {
				found++
			}
		}
		if found != hits {
			b.Fatalf("%d probes hit, want %d", found, hits)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nProbes), "ns/probe")
}

// BenchmarkAggFold is the declarative aggregate's fold at the query layer:
// one op aggregates 2^18 resident columnar rows in one thread, scan
// included. Rows are (flag u8, status u8, qty u32, price f64, disc f64,
// tax f64, key u64).
//
//   - q01: Q01's shape, a 2-byte key (flag, status) over 4 groups and five
//     folds: Sum(qty), Sum(price), price·(1−disc), price·(1−disc)·(1+tax),
//     Count;
//   - groups=64k: an 8-byte key over 65 536 groups in a scattered order,
//     Sum(price) and Count: the directory misses and hash-page probes.
func BenchmarkAggFold(b *testing.B) {
	const nRows = 1 << 18
	widths := []int{1, 1, 4, 8, 8, 8, 8}
	rows := make([][]byte, nRows)
	flat := make([]byte, nRows*38)
	for i := range rows {
		r := flat[i*38 : (i+1)*38]
		r[0], r[1] = byte(i%2), byte(i/2%2)
		binary.LittleEndian.PutUint32(r[2:6], uint32(1+i%50))
		binary.LittleEndian.PutUint64(r[6:14], math.Float64bits(float64(900+i%1000)))
		binary.LittleEndian.PutUint64(r[14:22], math.Float64bits(float64(i%11)/100))
		binary.LittleEndian.PutUint64(r[22:30], math.Float64bits(float64(i%9)/100))
		binary.LittleEndian.PutUint64(r[30:38], uint64(i)*7919%(1<<16))
		rows[i] = r
	}
	arr, err := disk.NewArray(b.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := core.NewPool(core.PoolConfig{Memory: 64 << 20, Array: arr})
	if err != nil {
		b.Fatal(err)
	}
	set, err := bp.CreateSet(core.SetSpec{Name: "facts", PageSize: 256 << 10, Layout: core.LayoutColumnar, Columns: widths})
	if err != nil {
		b.Fatal(err)
	}
	if err := services.WriteAll(set, rows); err != nil {
		b.Fatal(err)
	}
	price, disc := query.Of(3), query.OneMinus(4)
	for _, c := range []struct {
		name   string
		agg    query.Agg
		groups int
	}{
		{"q01", query.Agg{Keys: []int{0, 1}, Folds: []query.Fold{query.Sum(2), query.Sum(3),
			query.SumProduct(price, disc), query.SumProduct(price, disc, query.OnePlus(5)), query.Count()}}, 4},
		{"groups=64k", query.Agg{Keys: []int{6}, Folds: []query.Fold{query.Sum(3), query.Count()}}, 1 << 16},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := query.ScanSpec{Set: set}.AggBatches(bp, "tmp-agg", nil, c.agg)
				if err != nil {
					b.Fatal(err)
				}
				if len(m) != c.groups {
					b.Fatalf("%d groups, want %d", len(m), c.groups)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nRows), "ns/row")
		})
	}
}
