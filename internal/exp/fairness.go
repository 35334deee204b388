package exp

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"pangea/internal/core"
)

// S7Fairness measures multi-tenant isolation under the per-set admission
// control (ROADMAP: bound how much of the pool a single locality set may
// consume). A well-behaved "polite" tenant serves a write-through lookup
// set provisioned just under half the pool at a steady, latency-sensitive
// pace; an "aggressive" tenant scans a dirty random-read working set as
// large as the entire pool flat out, so every one of its misses demands
// memory. Without admission control the cost model does the globally
// I/O-optimal thing — the polite tenant's clean pages are free to drop
// (c_w = 0) while the aggressor's dirty random-read pages are expensive,
// so the polite tenant is evicted over and over and its residency and tail
// latency collapse: the Polynesia/HTAP co-residency failure mode, where
// per-page efficiency and per-tenant isolation pull apart. With a
// fair-share weight or a hard quota on the aggressor, its growth must
// self-evict before it may take a page from the under-entitlement tenant,
// however cheap that page looks.
func S7Fairness(o Options) (*Table, error) {
	const pageSize = 16 << 10
	poolPages := int64(o.pick(32, 64))
	mem := poolPages * pageSize
	// Provisioned under its 50% entitlement by a little more than the
	// pool's low watermark, so neither the polite tenant's own reload
	// demand nor the daemon's background free-memory target can ever be
	// satisfied only by taking the polite tenant's pages.
	politePages := int(poolPages * 3 / 8)
	aggrPages := int(poolPages)
	politeOps := o.pick(600, 3000)

	t := &Table{
		ID: "s7",
		Title: fmt.Sprintf("multi-tenant fairness: aggressive scan vs well-behaved tenant (%d KiB pages, %d KiB pool)",
			pageSize>>10, mem>>10),
		Header: []string{"admission", "polite share avg", "share min", "entitled",
			"pin p50 ms", "pin p99 ms", "polite loads", "aggr spills"},
	}

	pct := func(x float64) string { return fmt.Sprintf("%.0f%%", 100*x) }

	run := func(tag string, politeSpec, aggrSpec core.SetSpec, guaranteed float64) error {
		bp, arr, err := newPool(o, "s7-"+tag, mem, 1, nil)
		if err != nil {
			return err
		}
		defer func() { _ = arr.RemoveAll() }()

		polite, err := bp.CreateSet(politeSpec)
		if err != nil {
			return err
		}
		for i := 0; i < politePages; i++ {
			p, err := polite.NewPage()
			if err != nil {
				return err
			}
			p.Bytes()[0] = byte(i)
			// Write-through: the page is persisted here and stays clean in
			// memory, which is exactly what makes it the cost model's
			// favourite victim.
			if err := polite.Unpin(p, true); err != nil {
				return err
			}
		}
		aggr, err := bp.CreateSet(aggrSpec)
		if err != nil {
			return err
		}
		// A "well-tagged but selfish" tenant: random reads carry the w_r
		// re-read penalty, so the cost model is inclined to protect it.
		aggr.SetReading(core.RandomRead)

		var stop atomic.Bool
		done := make(chan error, 1)
		go func() {
			for i := 0; i < aggrPages && !stop.Load(); i++ {
				p, err := aggr.NewPage()
				if err != nil {
					done <- fmt.Errorf("aggressor NewPage %d: %w", i, err)
					return
				}
				p.Bytes()[0] = byte(i)
				if err := aggr.Unpin(p, true); err != nil {
					done <- err
					return
				}
			}
			for i := 0; !stop.Load(); i++ {
				p, err := aggr.Pin(int64(i % aggrPages))
				if err != nil {
					done <- fmt.Errorf("aggressor Pin: %w", err)
					return
				}
				if err := aggr.Unpin(p, false); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()

		lat := make([]time.Duration, 0, politeOps)
		var sumShare float64
		minShare := 1.0
		for op := 0; op < politeOps; op++ {
			start := time.Now()
			p, err := polite.Pin(int64(op % politePages))
			if err != nil {
				stop.Store(true)
				<-done
				return fmt.Errorf("polite Pin: %w", err)
			}
			if err := polite.Unpin(p, false); err != nil {
				stop.Store(true)
				<-done
				return err
			}
			lat = append(lat, time.Since(start))
			share := float64(polite.ResidentBytes()) / float64(mem)
			sumShare += share
			if share < minShare {
				minShare = share
			}
			// The polite tenant is latency-sensitive, not throughput-bound:
			// it works at a steady pace while the aggressor runs flat out.
			time.Sleep(250 * time.Microsecond)
		}
		stop.Store(true)
		if err := <-done; err != nil {
			return err
		}

		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p50, p99 := lat[len(lat)/2], lat[len(lat)*99/100]
		entitled := "-"
		if guaranteed > 0 {
			entitled = pct(guaranteed)
		}
		t.AddRow(tag, pct(sumShare/float64(politeOps)), pct(minShare), entitled,
			ms(p50), ms(p99),
			fmt.Sprintf("%d", polite.Stats().LoadReads.Load()), fmt.Sprintf("%d", aggr.Stats().SpillWrites.Load()))
		for _, s := range []*core.LocalitySet{polite, aggr} {
			if err := bp.DropSet(s); err != nil {
				return err
			}
		}
		return nil
	}

	scenarios := []struct {
		name       string
		polite     core.SetSpec
		aggr       core.SetSpec
		guaranteed float64 // polite's protected share of the pool
	}{
		{"none",
			core.SetSpec{Name: "polite", PageSize: pageSize, Durability: core.WriteThrough},
			core.SetSpec{Name: "aggr", PageSize: pageSize}, 0},
		{"weights 1:1",
			core.SetSpec{Name: "polite", PageSize: pageSize, Durability: core.WriteThrough, Weight: 1},
			core.SetSpec{Name: "aggr", PageSize: pageSize, Weight: 1}, 0.5},
		{"quota on aggressor",
			core.SetSpec{Name: "polite", PageSize: pageSize, Durability: core.WriteThrough},
			core.SetSpec{Name: "aggr", PageSize: pageSize, MemoryQuota: mem / 2}, 0.5},
	}
	for _, sc := range scenarios {
		if err := run(sc.name, sc.polite, sc.aggr, sc.guaranteed); err != nil {
			return nil, fmt.Errorf("s7 %s: %w", sc.name, err)
		}
	}
	t.Notes = append(t.Notes,
		"polite: write-through lookup set provisioned just under a 50% entitlement; aggressor: dirty random-read scan over the whole pool",
		"without admission the cost model rightly drops the cheap clean pages — and the polite tenant starves (share down, loads up, p99 up)",
		"with admission the aggressor's growth self-evicts (over-entitlement first, capped at its overage), so the polite share holds within ~10% of its working set")
	return t, nil
}
