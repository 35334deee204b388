package exp

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pangea/internal/core"
	"pangea/internal/disk"
	"pangea/internal/query"
	"pangea/internal/services"
)

// The single-node experiments build, load, time and tear down through the
// helpers here: drives and pools, the timed write-then-scan of Figs 7 and 8,
// and the s10–s12 fact table.

// tagDir is the directory a configuration's drives lie under: o.Dir/tag,
// with any '/' in tag (a policy name's "w/") replaced, so the tag names one
// directory directly under o.Dir.
func tagDir(o Options, tag string) string {
	return filepath.Join(o.Dir, strings.ReplaceAll(tag, "/", "_"))
}

// newDrives creates n drives of the given model under tagDir. done removes
// them; the configuration that made them defers it.
func newDrives(o Options, tag string, n int, model disk.Config) (arr *disk.Array, done func(), err error) {
	arr, err = disk.NewArray(tagDir(o, tag), n, model)
	if err != nil {
		return nil, nil, err
	}
	return arr, func() { _ = arr.RemoveAll() }, nil
}

// newPool builds a single-node buffer pool from cfg over n fresh drives of
// the given model (diskConfig() or disk.Unthrottled()). done removes the
// drives; a pool that fails to build leaves none behind.
func newPool(o Options, tag string, n int, model disk.Config, cfg core.PoolConfig) (bp *core.BufferPool, done func(), err error) {
	cfg.Array, done, err = newDrives(o, tag, n, model)
	if err != nil {
		return nil, nil, err
	}
	if bp, err = core.NewPool(cfg); err != nil {
		done()
		return nil, nil, err
	}
	return bp, done, nil
}

// namedPolicy is one entry of a policy lineup: its label and a constructor,
// so that every run gets a fresh policy.
type namedPolicy struct {
	Name   string
	Policy func() core.Policy
}

const scanIters = 5

// writeThenScan times write, then scanIters runs of scan, and returns the
// write's milliseconds and one scan's average as table cells.
func writeThenScan(write, scan func() error) ([]string, error) {
	start := time.Now()
	if err := write(); err != nil {
		return nil, err
	}
	w := time.Since(start)
	start = time.Now()
	for it := 0; it < scanIters; it++ {
		if err := scan(); err != nil {
			return nil, err
		}
	}
	return []string{ms(w), ms(time.Since(start) / scanIters)}, nil
}

// --- The s10–s12 fact table ---------------------------------------------------

// factPageSize is the fact table's page size.
const factPageSize = 128 << 10

// factRows generates n fact rows of the s10 schema: row i holds key(i),
// date(i), the value i%1000 and a payload derived from i.
func factRows(n int, key func(i int) uint64, date func(i int) uint16) [][]byte {
	rows := make([][]byte, n)
	flat := make([]byte, n*s10RowSize)
	for i := 0; i < n; i++ {
		r := flat[i*s10RowSize : (i+1)*s10RowSize]
		binary.LittleEndian.PutUint64(r[0:8], key(i))
		binary.LittleEndian.PutUint16(r[8:10], date(i))
		binary.LittleEndian.PutUint64(r[10:18], math.Float64bits(float64(i%1000)))
		for j := 18; j < s10RowSize; j++ {
			r[j] = byte(i + j)
		}
		rows[i] = r
	}
	return rows
}

// factIndex is a side index loadFacts builds while it writes the table: the
// tag its side object persists under, how it rides a writer, and how a set
// reloads it.
type factIndex struct {
	tag    string
	attach func(*services.SeqWriter) (saver, error)
	ensure func(*core.LocalitySet) error
}

// saver is a built side index, which persists itself into a set.
type saver interface{ Save(*core.LocalitySet) error }

// zoneMapIndex is a zone map built from spec.
func zoneMapIndex(spec services.ZoneMapSpec) factIndex {
	return factIndex{services.ZoneMapTag,
		func(w *services.SeqWriter) (saver, error) {
			return services.AttachZoneMap(w, spec)
		},
		func(set *core.LocalitySet) error { _, err := services.EnsureZoneMap(set, spec); return err }}
}

// microindexIndex is a microindex built from spec.
func microindexIndex(spec services.MicroindexSpec) factIndex {
	return factIndex{services.MicroindexTag,
		func(w *services.SeqWriter) (saver, error) {
			return services.AttachMicroindex(w, spec)
		},
		func(set *core.LocalitySet) error { _, err := services.EnsureMicroindex(set, spec); return err }}
}

// loadFacts builds a pool over drives drives — unthrottled and twice the
// data when warm, calibrated and a quarter of it when cold, never under 8
// pages — and writes rows into its write-through "facts" set, columnar or
// row. Each side index in idx rides the writer, is saved as a
// pfs side object, detached and reloaded from it: the lifecycle a restarted
// worker goes through. done removes the drives.
func loadFacts(o Options, tag string, rows [][]byte, drives int, warm, columnar bool, idx ...factIndex) (bp *core.BufferPool, set *core.LocalitySet, done func(), err error) {
	data := int64(len(rows)) * (s10RowSize + 8)
	model, mem := diskConfig(), data/4
	if warm {
		model, mem = disk.Unthrottled(), data*2
	}
	bp, done, err = newPool(o, tag, drives, model, core.PoolConfig{Memory: max(mem, 8*factPageSize)})
	if err != nil {
		return nil, nil, nil, err
	}
	defer func() {
		if err != nil {
			done()
		}
	}()
	spec := core.SetSpec{Name: "facts", PageSize: factPageSize, Durability: core.WriteThrough}
	if columnar {
		spec.Layout, spec.Columns = core.LayoutColumnar, s10Widths
	}
	if set, err = bp.CreateSet(spec); err != nil {
		return nil, nil, nil, err
	}
	w := services.NewSeqWriter(set)
	built := make([]saver, len(idx))
	for i, x := range idx {
		if built[i], err = x.attach(w); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, r := range rows {
		if err = w.Add(r); err != nil {
			_ = w.Close()
			return nil, nil, nil, err
		}
	}
	if err = w.Close(); err != nil {
		return nil, nil, nil, err
	}
	for i, x := range idx {
		if err = built[i].Save(set); err != nil {
			return nil, nil, nil, err
		}
		set.SetSideIndex(x.tag, nil)
		if err = x.ensure(set); err != nil {
			return nil, nil, nil, err
		}
	}
	return bp, set, done, nil
}

// detach takes the side indexes under tags off the set and returns what
// puts them back. A scan prunes by the indexes its set carries, so this is
// how the side-index experiments run their baselines.
func detach(set *core.LocalitySet, tags ...string) (restore func()) {
	saved := make([]any, len(tags))
	for i, tag := range tags {
		saved[i] = set.SideIndex(tag)
		set.SetSideIndex(tag, nil)
	}
	return func() {
		for i, tag := range tags {
			set.SetSideIndex(tag, saved[i])
		}
	}
}

// rangeTruth checks one date-range pass against what the generator implies:
// the rows whose date is under cutoff, and the sum of their values.
func rangeTruth(res s10Result, n int, date func(i int) uint16, cutoff uint16) error {
	var want s10Result
	for i := 0; i < n; i++ {
		if date(i) < cutoff {
			want.matched++
			want.sum += float64(i % 1000)
		}
	}
	if res.matched != want.matched || math.Abs(res.sum-want.sum) > 1e-6*math.Abs(want.sum)+1e-9 {
		return fmt.Errorf("matched %d sum %.3f, want %d / %.3f", res.matched, res.sum, want.matched, want.sum)
	}
	return nil
}

// sumPass runs spec through the batch kernels and returns the rows it
// selected and the sum of their value column. The sink's lock is taken once
// a batch.
func sumPass(spec query.ScanSpec) (s10Result, error) {
	var mu sync.Mutex
	var res s10Result
	err := spec.RunBatches(func(_ int, b *query.Batch) error {
		vals := b.Col(s10ColVal)
		var s float64
		for _, r := range b.Sel() {
			s += math.Float64frombits(binary.LittleEndian.Uint64(vals[int(r)*8:]))
		}
		mu.Lock()
		res.sum += s
		res.matched += int64(b.Selected())
		mu.Unlock()
		return nil
	})
	return res, err
}
