package core

import (
	"reflect"
	"sync/atomic"
)

// Every counter of the pool is declared once, as an atomic.Int64 field of
// PoolStats (the pool as a whole) or SetStats (one locality set). Code bumps
// the field itself; a Snapshot reports every field under its field name, so a
// counter added to either struct reaches the snapshots — and the cluster
// protocol, which ships them as they are — with no other line. A pool
// snapshot holds both structs' fields, so no name appears in both.

// PoolStats counts buffer pool activity. Loads counts demand misses only;
// SetStats.LoadReads counts a set's demand misses and prefetches alike, so
// in a pool snapshot LoadReads ≥ Loads.
type PoolStats struct {
	Evictions   atomic.Int64 // pages evicted
	Spills      atomic.Int64 // dirty pages written back on eviction
	Loads       atomic.Int64 // pages read from disk on a demand pin miss
	FlushWrites atomic.Int64 // write-through flushes at unpin time
	// SpillsInFlight is the number of victim write-backs currently queued
	// on or executing in the per-drive spill writers. The daemon does not
	// wait for them — each write's completion releases its own frame — so
	// the gauge can be non-zero with the daemon goroutine at rest; it is
	// zero once every submitted write has completed.
	SpillsInFlight atomic.Int64
	// PrefetchesIssued counts speculative page reads handed to the
	// per-drive read queues. PrefetchHits counts prefetched frames a Pin
	// later referenced (the speculation paid off); PrefetchWasted counts
	// prefetched frames evicted or dropped before any reference. Issued
	// reads still in flight — or resident and not yet referenced — are in
	// neither bucket, so Hits+Wasted ≤ Issued at any instant.
	PrefetchesIssued atomic.Int64
	PrefetchHits     atomic.Int64
	PrefetchWasted   atomic.Int64
	// LoadsInFlight is the number of page loads — demand misses and
	// prefetches — currently queued on or executing in the read path.
	LoadsInFlight atomic.Int64
}

// SetStats counts one locality set's activity. A pool snapshot sums each
// field over the pool's sets, the dropped ones included.
type SetStats struct {
	// SpillWrites counts the set's dirty pages the spill pipeline wrote
	// back; LoadReads the set's pages read from disk — demand misses and
	// prefetches alike, unlike PoolStats.Loads. For a set that never
	// declared a sequential reading pattern LoadReads counts exactly the
	// pages the set once had resident and lost. The fairness experiment
	// reads both to show which tenant absorbs the eviction I/O and who is
	// forced to re-read.
	SpillWrites atomic.Int64
	LoadReads   atomic.Int64
	// ZoneMapChecks counts pages a scan evaluated against the set's zone
	// map before pinning; ZoneMapSkips the subset those checks pruned —
	// pages a selective scan never pinned, read, or speculated on.
	ZoneMapChecks atomic.Int64
	ZoneMapSkips  atomic.Int64
	// IndexChecks counts pages a point-lookup scan evaluated against the
	// set's microindex; IndexHits the candidate subset the index kept —
	// checks minus hits is the pages dropped before the zone-map pass, any
	// pin, or any I/O.
	IndexChecks atomic.Int64
	IndexHits   atomic.Int64
	// SideObjectRebuilds counts the set's persisted side objects (zone
	// maps, microindexes) that were present but unusable — torn by a crash
	// mid-write, or undecodable — and were healed by a full-scan rebuild.
	// Absent side objects (seed sets) rebuild without bumping it.
	SideObjectRebuilds atomic.Int64
}

// EachCounter calls fn with the name and address of every atomic.Int64
// field of the stats struct p points to (a *PoolStats or a *SetStats), in
// declaration order.
func EachCounter(p any, fn func(name string, c *atomic.Int64)) {
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		if c, ok := v.Field(i).Addr().Interface().(*atomic.Int64); ok {
			fn(v.Type().Field(i).Name, c)
		}
	}
}

// addCounters adds every counter of the stats struct p points to into m.
func addCounters(m map[string]int64, p any) {
	EachCounter(p, func(name string, c *atomic.Int64) { m[name] += c.Load() })
}

// Stats exposes the set's activity counters.
func (s *LocalitySet) Stats() *SetStats { return &s.stats }

// Snapshot reports the set's counters by field name, with its gauges:
// NumPages, Resident (pages), Pinned (resident pages a writer, reader or
// data proxy holds a pin on), ResidentBytes, Entitlement and DiskBytes.
func (s *LocalitySet) Snapshot() map[string]int64 {
	s.mu.Lock()
	resident, pinned := len(s.resident), 0
	for _, p := range s.resident {
		if p.pin > 0 {
			pinned++
		}
	}
	s.mu.Unlock()
	m := map[string]int64{
		"NumPages": s.NumPages(), "Resident": int64(resident), "Pinned": int64(pinned),
		"ResidentBytes": s.ResidentBytes(), "Entitlement": s.Entitlement(), "DiskBytes": s.DiskBytes(),
	}
	addCounters(m, &s.stats)
	return m
}

// Snapshot reports the pool's counters by field name, each SetStats field
// summed over the live sets and those DropSet removed (so no total ever goes
// down).
func (bp *BufferPool) Snapshot() map[string]int64 {
	m := make(map[string]int64)
	addCounters(m, &bp.stats)
	bp.regMu.RLock()
	addCounters(m, &bp.dropped)
	for _, s := range bp.sets {
		addCounters(m, &s.stats)
	}
	bp.regMu.RUnlock()
	return m
}

// foldDropped adds a dropped set's counters into the pool's dropped total.
// The caller holds regMu and removes s from the registry under the same
// hold, so a Snapshot counts s exactly once.
func (bp *BufferPool) foldDropped(s *LocalitySet) {
	m := make(map[string]int64)
	addCounters(m, &s.stats)
	EachCounter(&bp.dropped, func(name string, c *atomic.Int64) { c.Add(m[name]) })
}
