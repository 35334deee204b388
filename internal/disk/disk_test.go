package disk

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"pangea/internal/locking"
)

func mustDisk(t *testing.T, cfg Config) *Disk {
	t.Helper()
	d, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := mustDisk(t, Unthrottled())
	f, err := d.Create("set1.data")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := []byte("pangea monolithic storage")
	if _, err := f.WriteAt(data, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
}

func TestOpenFilePreservesContents(t *testing.T) {
	d := mustDisk(t, Unthrottled())
	f, _ := d.Create("meta")
	f.WriteAt([]byte("hello"), 0)
	f.Close()
	g, err := d.OpenFile("meta")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	buf := make([]byte, 5)
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("OpenFile lost contents: %q", buf)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := mustDisk(t, Unthrottled())
	f, _ := d.Create("f")
	defer f.Close()
	buf := make([]byte, 1000)
	f.WriteAt(buf, 0)
	f.WriteAt(buf, 1000)
	f.ReadAt(buf, 0)
	s := d.Stats()
	if s.Writes != 2 || s.BytesWritten != 2000 {
		t.Fatalf("writes=%d bytes=%d, want 2/2000", s.Writes, s.BytesWritten)
	}
	if s.Reads != 1 || s.BytesRead != 1000 {
		t.Fatalf("reads=%d bytes=%d, want 1/1000", s.Reads, s.BytesRead)
	}
}

func TestFilesShareDriveTimeline(t *testing.T) {
	// Two files on ONE drive: concurrent 1MiB writes at 100MiB/s must
	// serialize to ~20ms total.
	d := mustDisk(t, Config{WriteMBps: 100})
	f1, _ := d.Create("a")
	f2, _ := d.Create("b")
	defer f1.Close()
	defer f2.Close()
	buf := make([]byte, 1<<20)
	start := time.Now()
	var wg sync.WaitGroup
	for _, f := range []*File{f1, f2} {
		wg.Add(1)
		go func(f *File) { defer wg.Done(); f.WriteAt(buf, 0) }(f)
	}
	wg.Wait()
	if el := time.Since(start); el < 18*time.Millisecond {
		t.Fatalf("same-drive writes did not serialize: %v", el)
	}
}

func TestThrottleEnforcesBandwidth(t *testing.T) {
	d := mustDisk(t, Config{WriteMBps: 100})
	f, _ := d.Create("f")
	defer f.Close()
	buf := make([]byte, 1<<20)
	start := time.Now()
	f.WriteAt(buf, 0)
	if el := time.Since(start); el < 8*time.Millisecond {
		t.Fatalf("1MiB@100MBps took %v, want >= ~10ms", el)
	}
}

func TestArrayParallelism(t *testing.T) {
	if locking.Checked {
		// The 2-disk/1-disk speedup ratio is calibrated against the raw
		// time model; the pangea_checks lock instrumentation adds enough
		// fixed per-op overhead to squeeze it below threshold. The checked
		// build is for correctness assertions, not timing.
		t.Skip("timing-calibrated ratio unreliable under pangea_checks instrumentation")
	}
	measure := func(numDisks int) time.Duration {
		// 256 KiB at 10 MB/s is ~25 ms of modelled drive time per write:
		// long against the real cost of the write itself, which under
		// -race (every byte of buf is shadow-checked) otherwise rivals the
		// modelled time and squeezes the 2-disk/1-disk ratio.
		a, err := NewArray(t.TempDir(), numDisks, Config{WriteMBps: 10})
		if err != nil {
			t.Fatal(err)
		}
		defer a.RemoveAll()
		buf := make([]byte, 256<<10)
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				f, _ := a.Pick(int64(i)).Create("f")
				defer f.Close()
				f.WriteAt(buf, 0)
			}(i)
		}
		wg.Wait()
		return time.Since(start)
	}
	one := measure(1)
	two := measure(2)
	if one < 45*time.Millisecond {
		t.Fatalf("single disk did not serialize: %v", one)
	}
	if two > one*8/10 {
		t.Fatalf("two disks not faster than one: 1-disk=%v 2-disk=%v", one, two)
	}
}

func TestArrayRoundRobin(t *testing.T) {
	a, err := NewArray(t.TempDir(), 3, Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	defer a.RemoveAll()
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3", a.Len())
	}
	seen := map[int]bool{}
	for seq := int64(0); seq < 6; seq++ {
		seen[a.PickIndex(seq)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("round-robin hit %d disks, want 3", len(seen))
	}
	if a.PickIndex(0) != a.PickIndex(3) {
		t.Fatal("round-robin not periodic")
	}
}

func TestArrayRejectsZeroDisks(t *testing.T) {
	if _, err := NewArray(t.TempDir(), 0, Unthrottled()); err == nil {
		t.Fatal("expected error for zero-disk array")
	}
}

func TestFileSizeAndTruncate(t *testing.T) {
	d := mustDisk(t, Unthrottled())
	f, _ := d.Create("f")
	defer f.Close()
	f.WriteAt(make([]byte, 500), 0)
	if n, _ := f.Size(); n != 500 {
		t.Fatalf("Size = %d, want 500", n)
	}
	if err := f.Truncate(100); err != nil {
		t.Fatal(err)
	}
	if n, _ := f.Size(); n != 100 {
		t.Fatalf("Size after truncate = %d, want 100", n)
	}
}

// TestReadFault covers the read-side fault hook: an error-returning hook
// fails every ReadAt (writes are untouched), a nil-returning hook observes
// reads without failing them, and clearing the hook restores normal reads.
func TestReadFault(t *testing.T) {
	d := mustDisk(t, Unthrottled())
	f, err := d.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := []byte("payload")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	sentinel := errSentinel{}
	d.SetReadFault(func() error { return sentinel })
	if _, err := f.ReadAt(make([]byte, len(data)), 0); err != sentinel {
		t.Fatalf("ReadAt under fault = %v, want the injected error", err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("WriteAt must not see the read fault: %v", err)
	}
	var observed int
	d.SetReadFault(func() error { observed++; return nil })
	buf := make([]byte, len(data))
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("nil-returning hook must not fail reads: %v", err)
	}
	if observed != 1 {
		t.Fatalf("observing hook saw %d reads, want 1", observed)
	}
	d.SetReadFault(nil)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("ReadAt after clearing fault: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("read %q, want %q", buf, data)
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "injected read fault" }
