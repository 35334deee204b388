package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pangea/internal/disk"
)

func newArray(t *testing.T, n int) *disk.Array {
	t.Helper()
	a, err := disk.NewArray(t.TempDir(), n, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestWriteReadPage(t *testing.T) {
	a := newArray(t, 1)
	pf, err := Create(a, "set1", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Remove()
	want := bytes.Repeat([]byte{0x5A}, 4096)
	if err := pf.WritePage(7, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if err := pf.ReadPage(7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("page round-trip mismatch")
	}
}

func TestReadMissingPage(t *testing.T) {
	a := newArray(t, 1)
	pf, _ := Create(a, "set1", 4096)
	defer pf.Remove()
	err := pf.ReadPage(3, make([]byte, 4096))
	if err == nil {
		t.Fatal("expected error for missing page")
	}
}

func TestOverwriteInPlace(t *testing.T) {
	a := newArray(t, 1)
	pf, _ := Create(a, "set1", 1024)
	defer pf.Remove()
	pf.WritePage(0, bytes.Repeat([]byte{1}, 1024))
	pf.WritePage(0, bytes.Repeat([]byte{2}, 1024))
	if pf.NumPages() != 1 {
		t.Fatalf("NumPages = %d after overwrite, want 1", pf.NumPages())
	}
	got := make([]byte, 1024)
	pf.ReadPage(0, got)
	if got[0] != 2 {
		t.Fatalf("read %d, want overwritten value 2", got[0])
	}
}

func TestShortPagePadded(t *testing.T) {
	a := newArray(t, 1)
	pf, _ := Create(a, "set1", 1024)
	defer pf.Remove()
	if err := pf.WritePage(0, []byte("short")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1024)
	if err := pf.ReadPage(0, got); err != nil {
		t.Fatal(err)
	}
	if string(got[:5]) != "short" {
		t.Fatalf("prefix = %q", got[:5])
	}
}

func TestOversizedPageRejected(t *testing.T) {
	a := newArray(t, 1)
	pf, _ := Create(a, "set1", 64)
	defer pf.Remove()
	if err := pf.WritePage(0, make([]byte, 65)); err == nil {
		t.Fatal("expected error for oversized page")
	}
}

func TestMultiDiskDistribution(t *testing.T) {
	a := newArray(t, 2)
	pf, _ := Create(a, "set1", 512)
	defer pf.Remove()
	for i := int64(0); i < 8; i++ {
		pf.WritePage(i, bytes.Repeat([]byte{byte(i)}, 512))
	}
	s0, s1 := a.Disk(0).Stats(), a.Disk(1).Stats()
	if s0.BytesWritten == 0 || s1.BytesWritten == 0 {
		t.Fatalf("pages not distributed: disk0=%d disk1=%d bytes", s0.BytesWritten, s1.BytesWritten)
	}
	// All pages must still read back correctly.
	buf := make([]byte, 512)
	for i := int64(0); i < 8; i++ {
		if err := pf.ReadPage(i, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("page %d corrupted across disks", i)
		}
	}
}

func TestMetaPersistence(t *testing.T) {
	a := newArray(t, 2)
	pf, _ := Create(a, "set1", 256)
	for i := int64(0); i < 5; i++ {
		pf.WritePage(i*10, bytes.Repeat([]byte{byte(i + 1)}, 256))
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(a, "set1")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Remove()
	if re.PageSize() != 256 {
		t.Fatalf("PageSize = %d after reopen, want 256", re.PageSize())
	}
	if re.NumPages() != 5 {
		t.Fatalf("NumPages = %d after reopen, want 5", re.NumPages())
	}
	buf := make([]byte, 256)
	for i := int64(0); i < 5; i++ {
		if err := re.ReadPage(i*10, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("page %d wrong after reopen: %d", i*10, buf[0])
		}
	}
	// New pages appended after reopen must not clobber existing ones.
	if err := re.WritePage(999, bytes.Repeat([]byte{0xEE}, 256)); err != nil {
		t.Fatal(err)
	}
	re.ReadPage(0, buf)
	if buf[0] != 1 {
		t.Fatal("append after reopen clobbered existing page")
	}
}

func TestPageNumsSorted(t *testing.T) {
	a := newArray(t, 1)
	pf, _ := Create(a, "s", 64)
	defer pf.Remove()
	for _, n := range []int64{5, 1, 9, 3} {
		pf.WritePage(n, []byte{byte(n)})
	}
	nums := pf.PageNums()
	want := []int64{1, 3, 5, 9}
	for i := range want {
		if nums[i] != want[i] {
			t.Fatalf("PageNums = %v, want %v", nums, want)
		}
	}
}

func TestDiskBytes(t *testing.T) {
	a := newArray(t, 1)
	pf, _ := Create(a, "s", 1024)
	defer pf.Remove()
	pf.WritePage(0, []byte{1})
	pf.WritePage(1, []byte{2})
	if got := pf.DiskBytes(); got != 2048 {
		t.Fatalf("DiskBytes = %d, want 2048", got)
	}
}

// Property: any sequence of page writes (numbers and payload seeds) reads
// back the last value written for every page, across 1..3 disks.
func TestPagedFileProperty(t *testing.T) {
	prop := func(pageNums []uint8, disks uint8) bool {
		nd := int(disks%3) + 1
		a, err := disk.NewArray(t.TempDir(), nd, disk.Unthrottled())
		if err != nil {
			return false
		}
		defer a.RemoveAll()
		pf, err := Create(a, "p", 128)
		if err != nil {
			return false
		}
		defer pf.Remove()
		last := map[int64]byte{}
		for i, pn := range pageNums {
			n := int64(pn % 16)
			v := byte(i + 1)
			if err := pf.WritePage(n, bytes.Repeat([]byte{v}, 128)); err != nil {
				return false
			}
			last[n] = v
		}
		buf := make([]byte, 128)
		for n, v := range last {
			if err := pf.ReadPage(n, buf); err != nil {
				return false
			}
			for _, b := range buf {
				if b != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestManyFilesShareArray(t *testing.T) {
	a := newArray(t, 2)
	var files []*PagedFile
	for i := 0; i < 4; i++ {
		pf, err := Create(a, fmt.Sprintf("set%d", i), 256)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, pf)
		pf.WritePage(0, []byte{byte(i + 1)})
	}
	buf := make([]byte, 256)
	for i, pf := range files {
		if err := pf.ReadPage(0, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("file %d corrupted by sibling files", i)
		}
		pf.Remove()
	}
}

func TestPlacePageStableRoundRobin(t *testing.T) {
	a := newArray(t, 3)
	pf, _ := Create(a, "s", 256)
	defer pf.Remove()
	perDrive := map[int32]int{}
	for i := int64(0); i < 9; i++ {
		loc, err := pf.PlacePage(i)
		if err != nil {
			t.Fatal(err)
		}
		perDrive[loc.Drive]++
		if again, _ := pf.PlacePage(i); again != loc {
			t.Fatalf("page %d placement moved: %+v then %+v", i, loc, again)
		}
	}
	for d := int32(0); d < 3; d++ {
		if perDrive[d] != 3 {
			t.Fatalf("drive %d got %d of 9 pages, want 3 (round-robin)", d, perDrive[d])
		}
	}
}

// TestWritePageAtConcurrentAcrossDrives drives the spill pipeline's usage:
// place every page first, then write the images from one goroutine per
// drive concurrently, and verify all of them read back.
func TestWritePageAtConcurrentAcrossDrives(t *testing.T) {
	const pages, pageSize = 12, 256
	a := newArray(t, 3)
	pf, _ := Create(a, "s", pageSize)
	defer pf.Remove()
	byDrive := map[int32][]int64{}
	locs := make([]PageLoc, pages)
	for i := int64(0); i < pages; i++ {
		var err error
		if locs[i], err = pf.PlacePage(i); err != nil {
			t.Fatal(err)
		}
		byDrive[locs[i].Drive] = append(byDrive[locs[i].Drive], i)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(byDrive))
	for _, nums := range byDrive {
		wg.Add(1)
		go func(nums []int64) {
			defer wg.Done()
			for _, n := range nums {
				if err := pf.WritePageAt(locs[n], n, bytes.Repeat([]byte{byte(n + 1)}, pageSize)); err != nil {
					errs <- err
					return
				}
			}
		}(nums)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	buf := make([]byte, pageSize)
	for i := int64(0); i < pages; i++ {
		if err := pf.ReadPage(i, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("page %d = %d after concurrent write-back, want %d", i, buf[0], i+1)
		}
	}
}

func TestWritePageAtRejectsBadDrive(t *testing.T) {
	a := newArray(t, 1)
	pf, _ := Create(a, "s", 64)
	defer pf.Remove()
	if err := pf.WritePageAt(PageLoc{Drive: 5}, 0, []byte{1}); err == nil {
		t.Fatal("expected error for out-of-range drive")
	}
	if err := pf.WritePageAt(PageLoc{Drive: 0}, 0, make([]byte, 65)); err == nil {
		t.Fatal("expected error for oversized data")
	}
}

// TestLocateReadPageAt exercises the split read path: Locate under the index
// lock, then lock-free ReadPageAt against the returned location. The
// location must stay valid across overwrites (pages are never relocated),
// and a missing page must fail Locate with ErrNoPage.
func TestLocateReadPageAt(t *testing.T) {
	a := newArray(t, 2)
	pf, err := Create(a, "set1", 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Remove()
	for num := int64(0); num < 4; num++ {
		if err := pf.WritePage(num, bytes.Repeat([]byte{byte(num + 1)}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	for num := int64(0); num < 4; num++ {
		loc, err := pf.Locate(num)
		if err != nil {
			t.Fatalf("Locate(%d): %v", num, err)
		}
		got := make([]byte, 1024)
		if err := pf.ReadPageAt(loc, num, got); err != nil {
			t.Fatalf("ReadPageAt(%d): %v", num, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(num + 1)}, 1024)) {
			t.Fatalf("page %d round-trip mismatch via Locate/ReadPageAt", num)
		}
	}
	// Locations survive an in-place overwrite.
	loc, _ := pf.Locate(2)
	if err := pf.WritePage(2, bytes.Repeat([]byte{0xEE}, 1024)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1024)
	if err := pf.ReadPageAt(loc, 2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0xEE}, 1024)) {
		t.Fatal("stale location after overwrite: pages must never relocate")
	}
	if _, err := pf.Locate(99); !errors.Is(err, ErrNoPage) {
		t.Fatalf("Locate(99) = %v, want ErrNoPage", err)
	}
	if err := pf.ReadPageAt(loc, 2, make([]byte, 512)); err == nil {
		t.Fatal("ReadPageAt accepted an undersized buffer")
	}
}

// TestClosePropagatesCloseError: Close must surface errors from closing the
// underlying files (a failed close of a written data file can mean lost
// bytes). A second Close hits already-closed files, the portable way to
// force that path — before the pangea-lint errdrop fix, closeAll swallowed
// these errors entirely.
func TestClosePropagatesCloseError(t *testing.T) {
	a := newArray(t, 2)
	pf, err := Create(a, "closeme", 512)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := pf.PlacePage(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.WritePageAt(loc, 0, bytes.Repeat([]byte{7}, 512)); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := pf.closeAll(); err == nil {
		t.Fatal("closeAll on closed files returned nil, want error")
	}
}

// driveFiles lists the files on each drive of a.
func driveFiles(t *testing.T, a *disk.Array) [][]string {
	t.Helper()
	out := make([][]string, a.Len())
	for i := range out {
		ents, err := os.ReadDir(a.Disk(i).Dir())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			out[i] = append(out[i], e.Name())
		}
	}
	return out
}

// TestFilesCreatedOnFirstWrite: Create opens nothing, a page creates the data
// file of the drive it lands on and no other, the meta file waits for
// FlushMeta, and FlushMeta, Close and Remove on a never-written file succeed.
func TestFilesCreatedOnFirstWrite(t *testing.T) {
	a := newArray(t, 3)
	pf, err := Create(a, "lazy", 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := driveFiles(t, a); fmt.Sprint(got) != "[[] [] []]" {
		t.Fatalf("Create left files %v, want none", got)
	}
	if err := pf.WritePage(7, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if got := driveFiles(t, a); fmt.Sprint(got) != "[[lazy.data] [] []]" {
		t.Fatalf("one page on drive 0 left files %v", got)
	}
	if err := pf.WritePage(8, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if got := driveFiles(t, a); fmt.Sprint(got) != "[[lazy.data] [lazy.data] []]" {
		t.Fatalf("a page on drive 1 left files %v", got)
	}
	if err := pf.ReadPageAt(PageLoc{Drive: 2}, 9, make([]byte, 64)); err == nil {
		t.Fatal("ReadPageAt on a drive with no data file succeeded")
	}
	if err := pf.Remove(); err != nil {
		t.Fatal(err)
	}
	if got := driveFiles(t, a); fmt.Sprint(got) != "[[] [] []]" {
		t.Fatalf("Remove left files %v", got)
	}

	never, err := Create(a, "never", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := never.Remove(); err != nil {
		t.Fatalf("Remove of a never-written file: %v", err)
	}
	never, _ = Create(a, "never", 64)
	if err := never.FlushMeta(); err != nil {
		t.Fatalf("FlushMeta of a never-written file: %v", err)
	}
	if err := never.Close(); err != nil {
		t.Fatalf("Close of a never-written file: %v", err)
	}
	if got := driveFiles(t, a); fmt.Sprint(got) != "[[never.meta] [] []]" {
		t.Fatalf("FlushMeta and Close left files %v, want only the meta file", got)
	}
	re, err := Open(a, "never")
	if err != nil {
		t.Fatal(err)
	}
	if re.NumPages() != 0 {
		t.Fatalf("reopened empty file holds %d pages", re.NumPages())
	}
	if err := re.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(a, "never"); err == nil {
		t.Fatal("Open of a file with no meta file succeeded")
	}
}

// TestCreateRefusesBadNames: set names cross the cluster wire, so a name that
// could leave the drive's directory, or that no OS accepts, fails at Create
// even though Create no longer opens a file.
func TestCreateRefusesBadNames(t *testing.T) {
	a := newArray(t, 1)
	for _, name := range []string{"../escape", "a/../../b", "/abs", "", "bad\x00name"} {
		if _, err := Create(a, name, 64); err == nil {
			t.Errorf("Create(%q) succeeded", name)
		}
	}
	if _, err := os.Stat(filepath.Join(a.Disk(0).Dir(), "..", "escape.data")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused name left a file outside the drive: %v", err)
	}
}

// TestFlushMetaKeepsIndexWhenRewriteFails: a meta rewrite that fails part way
// must leave the previous index readable. Before the index went to a sibling
// file renamed over the meta file, FlushMeta truncated the meta file first,
// so a failed write lost every page location of the set.
func TestFlushMetaKeepsIndexWhenRewriteFails(t *testing.T) {
	a := newArray(t, 2)
	pf, err := Create(a, "kept", 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := pf.WritePage(i, bytes.Repeat([]byte{byte(i + 1)}, 256)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pf.FlushMeta(); err != nil {
		t.Fatal(err)
	}
	if err := pf.WritePage(3, bytes.Repeat([]byte{4}, 256)); err != nil {
		t.Fatal(err)
	}
	fault := errors.New("injected meta write fault")
	a.Disk(0).SetWriteFault(func() error { return fault })
	if err := pf.FlushMeta(); !errors.Is(err, fault) {
		t.Fatalf("FlushMeta on a failing drive = %v, want the injected fault", err)
	}
	a.Disk(0).SetWriteFault(nil)

	re, err := Open(a, "kept")
	if err != nil {
		t.Fatalf("reopen after a failed meta rewrite: %v", err)
	}
	defer re.Remove()
	if n := re.NumPages(); n < 3 {
		t.Fatalf("reopened file indexes %d pages, want at least the 3 flushed", n)
	}
	buf := make([]byte, 256)
	for i := int64(0); i < 3; i++ {
		if err := re.ReadPage(i, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("page %d reads %d after reopen, want %d", i, buf[0], i+1)
		}
	}
}

// TestFlushMetaDoesNotBlockTheIndex stalls a meta rewrite inside its write
// and checks that the index stays usable meanwhile: a flush holds the index
// lock only to snapshot it.
func TestFlushMetaDoesNotBlockTheIndex(t *testing.T) {
	a := newArray(t, 2)
	pf, err := Create(a, "stalled", 256)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Remove()
	if err := pf.WritePage(0, bytes.Repeat([]byte{1}, 256)); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	a.Disk(0).SetWriteFault(func() error {
		close(entered)
		<-release
		return nil
	})
	flushed := make(chan error, 1)
	go func() { flushed <- pf.FlushMeta() }()
	<-entered
	a.Disk(0).SetWriteFault(nil)
	read := make(chan int, 1)
	go func() { read <- pf.NumPages() }()
	select {
	case n := <-read:
		if n != 1 {
			t.Errorf("NumPages during a flush = %d, want 1", n)
		}
	case <-time.After(10 * time.Second):
		t.Error("NumPages waited on a stalled meta rewrite")
	}
	close(release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
}
