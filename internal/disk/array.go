package disk

import (
	"fmt"
	"path/filepath"
)

// Array is the set of drives on one worker node. A Pangea data file instance
// can be automatically distributed across multiple disk drives (paper §4);
// the file system assigns pages to drives round-robin, and because each
// drive has its own time model, an Array of two disks delivers roughly twice
// the aggregate bandwidth of one.
type Array struct {
	disks []*Disk
}

// NewArray mounts n drives under dir with the given per-drive config.
func NewArray(dir string, n int, cfg Config) (*Array, error) {
	if n <= 0 {
		return nil, fmt.Errorf("disk: array needs at least one disk, got %d", n)
	}
	a := &Array{}
	for i := 0; i < n; i++ {
		d, err := Open(filepath.Join(dir, fmt.Sprintf("disk%d", i)), cfg)
		if err != nil {
			//lint:ignore errdrop best-effort cleanup of a half-built array; the Open error is the one the caller must see
			a.RemoveAll()
			return nil, err
		}
		a.disks = append(a.disks, d)
	}
	return a, nil
}

// Len returns the number of drives.
func (a *Array) Len() int { return len(a.disks) }

// Disk returns drive i.
func (a *Array) Disk(i int) *Disk { return a.disks[i] }

// Pick maps a page sequence number to a drive (round-robin placement).
func (a *Array) Pick(seq int64) *Disk { return a.disks[int(seq)%len(a.disks)] }

// PickIndex returns the drive index for a page sequence number.
func (a *Array) PickIndex(seq int64) int { return int(seq) % len(a.disks) }

// Stats sums every traffic counter — reads and writes, operations and
// bytes — over all drives, so array-level accounting never under-reports a
// direction.
func (a *Array) Stats() Stats {
	var s Stats
	for _, ds := range a.PerDriveStats() {
		s.Reads += ds.Reads
		s.Writes += ds.Writes
		s.BytesRead += ds.BytesRead
		s.BytesWritten += ds.BytesWritten
	}
	return s
}

// PerDriveStats snapshots each drive's traffic counters individually, in
// drive order: how evenly the round-robin placement balances read/write
// traffic across the array.
func (a *Array) PerDriveStats() []Stats {
	out := make([]Stats, len(a.disks))
	for i, d := range a.disks {
		out[i] = d.Stats()
	}
	return out
}

// RemoveAll deletes all drives' directory trees.
func (a *Array) RemoveAll() error {
	var first error
	for _, d := range a.disks {
		if err := d.RemoveAll(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
