package exp

import (
	"fmt"
	"strings"
	"time"

	"pangea/internal/core"
	"pangea/internal/disk"
)

// S6SpillThroughput measures the eviction daemon's write-back bandwidth
// against the drive count: a single producer streams dirty write-back pages
// through a pool an eighth the size of the data, so throughput is gated by
// how fast the daemon can spill victims. The paged file layer places pages
// round-robin across the array (paper §4), and the daemon's per-drive spill
// pipeline writes one victim group per drive concurrently — so spill
// bandwidth, and with it the producer's end-to-end rate, should scale with
// the array width. The per-drive columns expose how evenly round-robin
// placement balanced the traffic.
func S6SpillThroughput(o Options) (*Table, error) {
	const pageSize = 64 << 10
	poolPages := int64(o.pick(32, 64))
	totalPages := int(o.pick(128, 512))
	mem := poolPages * pageSize
	t := &Table{
		ID:    "s6",
		Title: fmt.Sprintf("spill throughput vs drive count (%d KiB pages, %d MiB through a %d MiB pool)", pageSize>>10, int64(totalPages)*pageSize>>20, mem>>20),
		Header: []string{"drives", "write ms", "spill MB/s", "speedup", "drive util",
			"per-drive writes", "per-drive reads"},
	}
	var base float64
	for _, drives := range []int{1, 2, 4} {
		bp, arr, err := newPool(o, fmt.Sprintf("s6-%dd", drives), mem, drives, nil)
		if err != nil {
			return nil, err
		}
		set, err := bp.CreateSet(core.SetSpec{Name: "spill", PageSize: pageSize})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < totalPages; i++ {
			p, err := set.NewPage()
			if err != nil {
				return nil, fmt.Errorf("s6: page %d on %d drives: %w", i, drives, err)
			}
			p.Bytes()[0] = byte(i)
			if err := set.Unpin(p, true); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start)
		stats := arr.Stats()
		mbps := float64(stats.BytesWritten) / (1 << 20) / elapsed.Seconds()
		if drives == 1 {
			base = elapsed.Seconds()
		}
		perDrive := arr.PerDriveStats()
		writes := make([]string, len(perDrive))
		reads := make([]string, len(perDrive))
		for i, ds := range perDrive {
			writes[i] = fmt.Sprintf("%d", ds.Writes)
			reads[i] = fmt.Sprintf("%d", ds.Reads)
		}
		t.AddRow(fmt.Sprintf("%d", drives), ms(elapsed), fmt.Sprintf("%.0f", mbps),
			fmt.Sprintf("%.2fx", base/elapsed.Seconds()), driveUtil(arr, disk.Stats{}, elapsed),
			strings.Join(writes, "/"), strings.Join(reads, "/"))
		if err := bp.DropSet(set); err != nil {
			return nil, err
		}
		_ = arr.RemoveAll()
	}
	t.Notes = append(t.Notes,
		"one spill queue per drive, two writes at the drive at once: victims go to their page's round-robin drive and land concurrently",
		"drive util: modelled device time of the traffic over wall × drives — the producer is gated by the drives when it reads near 1",
		"per-drive writes should be near-equal (round-robin balance); the seed wrote every victim serially from one goroutine")
	return t, nil
}
