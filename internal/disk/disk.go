// Package disk provides the secondary-storage substrate for Pangea.
//
// The paper evaluates on AWS instance-store SSDs (one or two per node). We
// do not have those, so Disk models a drive: files created on it share one
// calibrated throughput/latency timeline — every operation reserves an
// exclusive slot (seek latency + bytes/bandwidth) and sleeps until its slot
// ends; what a sleep overshoots is paid back on the next slot. Concurrent
// requests to one drive therefore queue, while requests to different drives
// in an Array proceed in parallel — reproducing the 1-disk vs 2-disk
// separation in Figs 7, 8 and Table 3 without hardware.
package disk

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"pangea/internal/locking"
)

// Config describes the performance envelope of one simulated drive.
type Config struct {
	// ReadMBps and WriteMBps are sequential bandwidths in MiB/s. Zero
	// disables throttling for that direction.
	ReadMBps  float64
	WriteMBps float64
	// SeekLatency is charged once per operation.
	SeekLatency time.Duration
}

// DefaultConfig approximates the paper's instance-store SSD, scaled so that
// MB-range experiments show the same memory/disk separation the paper's
// GB-range experiments do.
func DefaultConfig() Config {
	return Config{ReadMBps: 200, WriteMBps: 180, SeekLatency: 100 * time.Microsecond}
}

// Unthrottled returns a config with the time model disabled; used by unit
// tests that only care about correctness.
func Unthrottled() Config { return Config{} }

// Stats counts the traffic a drive has served.
type Stats struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
}

// Disk is one simulated drive. All Files opened on it share its timeline.
type Disk struct {
	cfg Config
	dir string

	mu        locking.Mutex
	busyUntil time.Time
	// owed is how much of its last sleeper's oversleep the drive has not
	// yet paid back: a slot may start that far before now.
	owed time.Duration

	reads, writes, bytesRead, bytesWritten atomic.Int64

	// writeFault, when set, is consulted before every write on the drive;
	// a non-nil return fails the write without touching the file. Tests use
	// it to inject per-drive spill failures.
	writeFault atomic.Pointer[func() error]
	// readFault mirrors writeFault for the read direction: the load/prefetch
	// failure tests inject per-drive read errors without real I/O faults.
	readFault atomic.Pointer[func() error]
}

// Open mounts a drive rooted at dir, creating the directory if needed.
func Open(dir string, cfg Config) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	d := &Disk{cfg: cfg, dir: dir}
	d.mu.Init(locking.RankDisk)
	return d, nil
}

// Dir returns the drive's mount directory.
func (d *Disk) Dir() string { return d.dir }

// Create opens (truncating) a file named name on this drive.
func (d *Disk) Create(name string) (*File, error) {
	path := filepath.Join(d.dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	return &File{d: d, f: f, path: path}, nil
}

// Exists reports whether a file named name is present on this drive.
// OpenFile creates absent files, so callers that must distinguish "never
// written" (pfs side objects) check here first.
func (d *Disk) Exists(name string) bool {
	_, err := os.Stat(filepath.Join(d.dir, name))
	return err == nil
}

// OpenFile opens an existing file on this drive without truncating it,
// creating it empty if absent (used when re-attaching meta/data files).
func (d *Disk) OpenFile(name string) (*File, error) {
	path := filepath.Join(d.dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	return &File{d: d, f: f, path: path}, nil
}

// maxCredit caps what one sleep's oversleep earns, and so the burst of
// unslept operations that can follow it. A sleep takes about a millisecond
// longer than asked, whatever it asks for, so a run of 183 µs operations
// whose slots all started at the wall clock would cost six times its model.
// A loaded host wakes sleepers later still: beside four CPU-bound processes
// on two cores, a 2 ms cap left such a run 12–14 % over its model, 5 ms 4–5 %.
const maxCredit = 5 * time.Millisecond

// throttle reserves a slot of the appropriate duration on the drive
// timeline and sleeps until the slot completes. A slot starts where the last
// one ended or, on an idle drive, at now less what the drive still owes:
// a sleeper that wakes past its slot's end records by how much, and the
// slots after it may start that much in the past until the debt is spent.
// Only measured oversleep is credited; the time a caller spends between
// operations, or a drive spends idle, is never banked.
func (d *Disk) throttle(n int, mbps float64) {
	if mbps == 0 && d.cfg.SeekLatency == 0 {
		return
	}
	dur := d.cfg.SeekLatency
	if mbps > 0 {
		dur += time.Duration(float64(n) / (mbps * 1024 * 1024) * float64(time.Second))
	}
	d.mu.Lock()
	now := time.Now()
	start := d.busyUntil
	if floor := now.Add(-d.owed); start.Before(floor) {
		start = floor
	}
	end := start.Add(dur)
	d.busyUntil = end
	d.owed = max(0, now.Sub(end))
	d.mu.Unlock()
	if wait := end.Sub(now); wait > 0 {
		time.Sleep(wait)
		late := min(time.Since(end), maxCredit)
		d.mu.Lock()
		d.owed = late
		d.mu.Unlock()
	}
}

// SetWriteFault installs f as the drive's write-fault hook; every write on
// the drive first calls f and fails with its error when non-nil. Passing
// nil clears the hook. Intended for tests that simulate a failing drive.
func (d *Disk) SetWriteFault(f func() error) {
	if f == nil {
		d.writeFault.Store(nil)
		return
	}
	d.writeFault.Store(&f)
}

// SetReadFault installs f as the drive's read-fault hook; every read on the
// drive first calls f and fails with its error when non-nil. A hook that
// returns nil observes the read without failing it (tests count or delay
// reads this way). Passing nil clears the hook.
func (d *Disk) SetReadFault(f func() error) {
	if f == nil {
		d.readFault.Store(nil)
		return
	}
	d.readFault.Store(&f)
}

// Stats returns a snapshot of traffic counters.
func (d *Disk) Stats() Stats {
	return Stats{
		Reads:        d.reads.Load(),
		Writes:       d.writes.Load(),
		BytesRead:    d.bytesRead.Load(),
		BytesWritten: d.bytesWritten.Load(),
	}
}

// SyncDir flushes the drive's directory to stable storage, making the files
// created, renamed or removed in it so far durable.
func (d *Disk) SyncDir() error {
	dir, err := os.Open(d.dir)
	if err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("disk: sync %s: %w", d.dir, err)
	}
	return nil
}

// RemoveAll deletes the drive's entire directory tree.
func (d *Disk) RemoveAll() error { return os.RemoveAll(d.dir) }

// File is a file on a simulated drive; reads and writes are charged to the
// drive's time model. Pangea performs direct I/O to bypass the OS buffer
// cache (paper §4); the time model plays that role here — every operation
// pays the device cost.
type File struct {
	d    *Disk
	f    *os.File
	path string
}

// ReadAt reads len(p) bytes at offset off.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if hook := f.d.readFault.Load(); hook != nil {
		if err := (*hook)(); err != nil {
			return 0, err
		}
	}
	f.d.throttle(len(p), f.d.cfg.ReadMBps)
	n, err := f.f.ReadAt(p, off)
	f.d.reads.Add(1)
	f.d.bytesRead.Add(int64(n))
	return n, err
}

// WriteAt writes p at offset off.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if hook := f.d.writeFault.Load(); hook != nil {
		if err := (*hook)(); err != nil {
			return 0, err
		}
	}
	f.d.throttle(len(p), f.d.cfg.WriteMBps)
	n, err := f.f.WriteAt(p, off)
	f.d.writes.Add(1)
	f.d.bytesWritten.Add(int64(n))
	return n, err
}

// Size returns the current file length in bytes.
func (f *File) Size() (int64, error) {
	st, err := f.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Sync flushes the file to stable storage.
func (f *File) Sync() error { return f.f.Sync() }

// Truncate resizes the file.
func (f *File) Truncate(n int64) error { return f.f.Truncate(n) }

// Rename gives the file the name to on its drive, replacing any file of
// that name in one step: a reader sees the old file or this one, never a mix.
// The new name outlasts a crash only once the drive's SyncDir returns.
func (f *File) Rename(to string) error {
	path := filepath.Join(f.d.dir, to)
	if err := os.Rename(f.path, path); err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	f.path = path
	return nil
}

// Path returns the file's path on the host filesystem.
func (f *File) Path() string { return f.path }

// Close closes the file.
func (f *File) Close() error { return f.f.Close() }

// Remove closes and deletes the file.
func (f *File) Remove() error {
	if err := f.f.Close(); err != nil {
		return err
	}
	return os.Remove(f.path)
}
