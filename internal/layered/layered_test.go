package layered

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"pangea/internal/disk"
)

func newDisk(t *testing.T) *disk.Disk {
	t.Helper()
	d, err := disk.Open(t.TempDir(), disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.RemoveAll() })
	return d
}

func newArray(t *testing.T, n int) *disk.Array {
	t.Helper()
	arr, err := disk.NewArray(t.TempDir(), n, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	return arr
}

// --- OSVM ----------------------------------------------------------------

func TestOSVMReadWriteWithinMemory(t *testing.T) {
	vm := NewOSVM(newDisk(t), 1<<20)
	addr := vm.Malloc(10000)
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i)
	}
	if err := vm.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 10000)
	if err := vm.Read(addr, out); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if out[i] != data[i] {
			t.Fatalf("byte %d: %d != %d", i, out[i], data[i])
		}
	}
	if vm.PageOuts() != 0 {
		t.Errorf("unexpected page-outs within memory: %d", vm.PageOuts())
	}
}

func TestOSVMSwapsBeyondMemory(t *testing.T) {
	vm := NewOSVM(newDisk(t), 64<<10) // 16 resident pages
	const n = 256 << 10
	addr := vm.Malloc(n)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := vm.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	if vm.PageOuts() == 0 {
		t.Fatal("expected swap-outs")
	}
	out := make([]byte, n)
	if err := vm.Read(addr, out); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if out[i] != data[i] {
			t.Fatalf("byte %d corrupted after swap", i)
		}
	}
	if vm.PageIns() == 0 {
		t.Error("expected swap-ins on read-back")
	}
}

// TestOSVMPageStealingWritesMore reproduces the §9.2.1 observation: with
// page stealing the kernel pages out more data than a demand-only pager.
// Three passes over 32 pages through 16 resident ones dirty 96 page
// touches; a demand-only LRU pages out all but the 16 left resident, 80.
func TestOSVMPageStealingWritesMore(t *testing.T) {
	vm := NewOSVM(newDisk(t), 64<<10)
	addr := vm.Malloc(128 << 10)
	buf := make([]byte, 1024)
	for pass := 0; pass < 3; pass++ {
		for off := int64(0); off < 128<<10; off += 1024 {
			if err := vm.Write(addr+off, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, demand := vm.PageOuts(), int64(3*32-16); got <= demand {
		t.Errorf("page stealing paged out %d pages, demand paging %d; stealing should page out more", got, demand)
	}
}

// TestOSVMFreeAllAfterSwapping: FreeAll empties the page cache, and a new
// allocation at the same address reads zeros, not the swapped-out bytes.
func TestOSVMFreeAllAfterSwapping(t *testing.T) {
	vm := NewOSVM(newDisk(t), 64<<10)
	data := bytes.Repeat([]byte{0xCD}, 256<<10)
	if err := vm.Write(vm.Malloc(int64(len(data))), data); err != nil {
		t.Fatal(err)
	}
	if vm.PageOuts() == 0 {
		t.Fatal("expected swap-outs")
	}
	vm.FreeAll()
	if got := vm.fs.CachedBytes(); got != 0 {
		t.Errorf("page cache holds %d bytes after FreeAll", got)
	}
	addr := vm.Malloc(OSVMPageSize)
	if addr != 0 {
		t.Fatalf("Malloc after FreeAll = %d, want 0", addr)
	}
	ins := vm.PageIns()
	out := make([]byte, OSVMPageSize)
	if err := vm.Read(addr, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, make([]byte, OSVMPageSize)) {
		t.Error("freed memory read back non-zero")
	}
	if vm.PageIns() != ins {
		t.Errorf("reading fresh memory paged in %d pages", vm.PageIns()-ins)
	}
}

// --- OSFS ----------------------------------------------------------------

func TestOSFSWriteReadThroughCache(t *testing.T) {
	fs := NewOSFS(newDisk(t), 1<<20)
	data := make([]byte, 50000)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := fs.WriteAt("f", data, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync("f"); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(data))
	if err := fs.ReadAt("f", out, 0); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if out[i] != data[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
	hits, _ := fs.CacheStats()
	if hits == 0 {
		t.Error("expected cache hits on read-after-write")
	}
}

func TestOSFSEvictsBeyondCache(t *testing.T) {
	fs := NewOSFS(newDisk(t), 64<<10)
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i)
	}
	if err := fs.WriteAt("big", data, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync("big"); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(data))
	if err := fs.ReadAt("big", out, 0); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if out[i] != data[i] {
			t.Fatalf("byte %d mismatch after cache eviction", i)
		}
	}
}

// TestOSFSPartialWriteKeepsRestOfPage: a short write at the start of a
// page that was written back must not zero the rest of it.
func TestOSFSPartialWriteKeepsRestOfPage(t *testing.T) {
	fs := NewOSFS(newDisk(t), 64<<10)
	if err := fs.WriteAt("f", bytes.Repeat([]byte{0xAB}, OSVMPageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync("f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt("g", make([]byte, 128<<10), 0); err != nil { // evicts f's page
		t.Fatal(err)
	}
	if err := fs.WriteAt("f", []byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, OSVMPageSize)
	if err := fs.ReadAt("f", out, 0); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < len(out); i++ {
		if out[i] != 0xAB {
			t.Fatalf("byte %d = %#x after a 3-byte write at offset 0", i, out[i])
		}
	}
}

// TestOSFSStealsLeastRecentlyUsed: page stealing takes the least recently
// used pages, so a page touched again survives pages touched once before it.
func TestOSFSStealsLeastRecentlyUsed(t *testing.T) {
	fs := NewOSFS(newDisk(t), 64<<10) // 16 pages: steal to 12 above 14
	touch := func(num int64) {
		t.Helper()
		if err := fs.WriteAt("f", bytes.Repeat([]byte{byte(num)}, OSVMPageSize), num*OSVMPageSize); err != nil {
			t.Fatal(err)
		}
	}
	for num := int64(0); num < 12; num++ {
		touch(num)
	}
	touch(0)
	for num := int64(12); num < 15; num++ {
		touch(num)
	}
	if fs.pageOuts != 3 {
		t.Fatalf("stealing wrote back %d pages, want 3", fs.pageOuts)
	}
	read := func(num int64) (hit bool, pagedIn bool) {
		t.Helper()
		hits, ins := fs.hits, fs.pageIns
		out := make([]byte, OSVMPageSize)
		if err := fs.ReadAt("f", out, num*OSVMPageSize); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, bytes.Repeat([]byte{byte(num)}, OSVMPageSize)) {
			t.Fatalf("page %d read back wrong bytes", num)
		}
		return fs.hits > hits, fs.pageIns > ins
	}
	if hit, in := read(0); !hit || in {
		t.Errorf("page 0: hit=%v paged in=%v; the page touched again must stay cached", hit, in)
	}
	if hit, in := read(1); hit || !in {
		t.Errorf("page 1: hit=%v paged in=%v; the least recently used page must be stolen", hit, in)
	}
}

// --- HDFS ----------------------------------------------------------------

func TestHDFSAppendScanRoundTrip(t *testing.T) {
	h := NewHDFS(newArray(t, 2), 4<<20)
	h.Create("data")
	var want []byte
	for i := 0; i < 300; i++ {
		chunk := make([]byte, 9000)
		for j := range chunk {
			chunk[j] = byte(i + j)
		}
		want = append(want, chunk...)
		if err := h.Append("data", chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Sync("data"); err != nil {
		t.Fatal(err)
	}
	if h.Size("data") != int64(len(want)) {
		t.Fatalf("size = %d, want %d", h.Size("data"), len(want))
	}
	var got []byte
	if err := h.Scan("data", func(chunk []byte) error {
		got = append(got, chunk...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("scan bytes differ from appended bytes")
	}
	// Blocks must be spread over both drives.
	if len(h.blocks["data"]) < 2 {
		t.Fatal("expected multiple blocks")
	}
	seen := map[int]bool{}
	for _, b := range h.blocks["data"] {
		seen[b.diskIdx] = true
	}
	if len(seen) != 2 {
		t.Errorf("blocks on %d drives, want 2", len(seen))
	}
}

// --- Alluxio ----------------------------------------------------------------

func TestAlluxioRoundTripAndCapacity(t *testing.T) {
	a := NewAlluxio(64 << 10)
	a.Create("f")
	obj := make([]byte, 1000)
	var wrote int
	var errFull error
	for i := 0; i < 100; i++ {
		obj[0] = byte(i)
		if err := a.WriteObject("f", obj); err != nil {
			errFull = err
			break
		}
		wrote++
	}
	if errFull == nil {
		t.Fatal("Alluxio must refuse writes beyond its memory")
	}
	if !errors.Is(errFull, ErrAlluxioFull) {
		t.Errorf("err = %v, want ErrAlluxioFull", errFull)
	}
	var scanned int
	if err := a.Scan("f", func(o []byte) error {
		if o[0] != byte(scanned) {
			t.Errorf("object %d corrupted", scanned)
		}
		scanned++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if scanned != wrote {
		t.Errorf("scanned %d, wrote %d", scanned, wrote)
	}
}

// --- Ignite ----------------------------------------------------------------

func TestIgniteRoundTripAndCrash(t *testing.T) {
	g := NewIgnite(128 << 10) // 8 × 16KB pages
	g.Create("f")
	obj := make([]byte, 1000)
	var wrote int
	var crash error
	for i := 0; i < 1000; i++ {
		binary.LittleEndian.PutUint32(obj, uint32(i))
		if err := g.WriteObject("f", obj); err != nil {
			crash = err
			break
		}
		wrote++
	}
	if crash == nil {
		t.Fatal("Ignite must crash beyond its off-heap region")
	}
	if !errors.Is(crash, ErrIgniteCrash) {
		t.Errorf("err = %v, want ErrIgniteCrash", crash)
	}
	var scanned int
	if err := g.Scan("f", func(o []byte) error {
		if binary.LittleEndian.Uint32(o) != uint32(scanned) {
			t.Errorf("object %d corrupted", scanned)
		}
		scanned++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if scanned != wrote {
		t.Errorf("scanned %d, wrote %d", scanned, wrote)
	}
	if g.Compactions() == 0 {
		t.Error("expected compaction passes before crashing")
	}
	if g.WriteObject("f", make([]byte, IgnitePageSize)) == nil {
		t.Error("oversized object must be rejected (16KB hard page)")
	}
}

// --- Spark engine ----------------------------------------------------------------

func sparkPoints(n, dim int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		rec := make([]byte, 8*dim)
		for j := 0; j < dim; j++ {
			v := float64((i*31+j*17)%100) + float64(i%2)*500
			binary.LittleEndian.PutUint64(rec[8*j:], math.Float64bits(v))
		}
		out[i] = rec
	}
	return out
}

func TestSparkKMeansOverEachStorage(t *testing.T) {
	const n, dim, k = 2000, 4, 2
	pts := sparkPoints(n, dim)
	stores := []*Storage{
		NewHDFSStorage(newArray(t, 1), 4<<20),
		NewAlluxioStorage(8 << 20),
		NewIgniteStorage(8 << 20),
	}
	for _, st := range stores {
		if err := LoadPointsToStorage(st, "pts", pts, 200); err != nil {
			t.Fatalf("%s: load: %v", st.Name(), err)
		}
		m, err := SparkKMeans(st, "pts", SparkConfig{K: k, Dim: dim, Iterations: 3, StoragePool: 4 << 20, ExecPool: 1 << 20})
		if err != nil {
			t.Fatalf("%s: %v", st.Name(), err)
		}
		if len(m.Centroids) != k {
			t.Errorf("%s: centroids = %d", st.Name(), len(m.Centroids))
		}
		if len(m.IterTimes) != 3 {
			t.Errorf("%s: iterations = %d", st.Name(), len(m.IterTimes))
		}
		if m.PeakMemory == 0 {
			t.Errorf("%s: peak memory not tracked", st.Name())
		}
	}
}

// TestSparkRDDCacheMissesWhenPoolSmall: with a storage pool smaller than
// the norms RDD, blocks are recomputed from the layer below each iteration.
func TestSparkRDDCacheMissesWhenPoolSmall(t *testing.T) {
	const n, dim = 4000, 4
	pts := sparkPoints(n, dim)
	st := NewHDFSStorage(newArray(t, 1), 4<<20)
	if err := LoadPointsToStorage(st, "pts", pts, 200); err != nil {
		t.Fatal(err)
	}
	m, err := SparkKMeans(st, "pts", SparkConfig{K: 2, Dim: dim, Iterations: 3, StoragePool: 32 << 10, ExecPool: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheMisses == 0 {
		t.Error("expected RDD cache misses with a tiny storage pool")
	}
}

// TestSparkOverAlluxioDoubleCaches: the same dataset occupies both Alluxio
// worker memory and the RDD cache — the redundant placement of Fig 4.
func TestSparkOverAlluxioDoubleCaches(t *testing.T) {
	const n, dim = 2000, 4
	pts := sparkPoints(n, dim)
	st := NewAlluxioStorage(8 << 20)
	if err := LoadPointsToStorage(st, "pts", pts, 200); err != nil {
		t.Fatal(err)
	}
	m, err := SparkKMeans(st, "pts", SparkConfig{K: 2, Dim: dim, Iterations: 2, StoragePool: 8 << 20, ExecPool: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	dataBytes := int64(n * dim * 8)
	if m.PeakMemory < 2*dataBytes {
		t.Errorf("peak memory %d < 2× data %d; double caching not captured", m.PeakMemory, 2*dataBytes)
	}
}

// TestRDDCacheEvictsLeastRecentlyUsed: get refreshes a block, put evicts
// whole blocks oldest first until the new one fits, and used is the sum of
// the resident blocks.
func TestRDDCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := newRDDCache(100)
	for _, id := range []string{"a", "b", "c"} {
		c.put(id, nil, 30)
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("d", nil, 50) // needs 40 more: evicts b, then c
	for id, want := range map[string]bool{"a": true, "b": false, "c": false, "d": true} {
		if _, ok := c.get(id); ok != want {
			t.Errorf("%s cached = %v, want %v", id, ok, want)
		}
	}
	var sum int64
	for e := c.lru.Front(); e != nil; e = e.Next() {
		sum += e.Value.(*rddBlock).size
	}
	if c.used != sum || c.used != 80 {
		t.Errorf("used = %d, resident blocks sum to %d, want 80", c.used, sum)
	}
	c.put("e", nil, 101) // larger than the cache: not cached, nothing evicted
	if _, ok := c.get("e"); ok || c.used != 80 {
		t.Errorf("oversized block: cached=%v used=%d", ok, c.used)
	}
}

// --- Spark shuffle ----------------------------------------------------------------

func TestSparkShuffleRoundTripAndFileCount(t *testing.T) {
	arr := newArray(t, 1)
	s, err := NewSparkShuffle(arr, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumFiles() != 16 {
		t.Errorf("files = %d, want 4×4", s.NumFiles())
	}
	rec := make([]byte, 100)
	var written [4]int64
	for i := 0; i < 4000; i++ {
		core, part := i%4, (i/7)%4
		if err := s.Write(core, part, rec); err != nil {
			t.Fatal(err)
		}
		written[part] += 100
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		var got int64
		if err := s.ReadPartition(p, func(chunk []byte) error {
			got += int64(len(chunk))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got != written[p] {
			t.Errorf("partition %d: read %d bytes, wrote %d", p, got, written[p])
		}
	}
}

// --- Redis ----------------------------------------------------------------

func TestRedisIncrGetRoundTrip(t *testing.T) {
	srv, err := NewRedisServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialRedis(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i%10)
		if _, err := c.IncrBy(key, 2); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := c.Get("k3")
	if err != nil || !ok || v != 20 {
		t.Errorf("Get(k3) = %d,%v,%v; want 20,true,nil", v, ok, err)
	}
	if srv.Len() != 10 {
		t.Errorf("keys = %d, want 10", srv.Len())
	}
	if _, ok, _ := c.Get("absent"); ok {
		t.Error("absent key reported present")
	}
}

// BenchmarkOSFSMiss is one in-order 4 KiB read an op of a file twice the
// page cache's size, so every read misses and reclaims.
func BenchmarkOSFSMiss(b *testing.B) {
	for _, pages := range []int64{512, 8192} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			d, err := disk.Open(b.TempDir(), disk.Unthrottled())
			if err != nil {
				b.Fatal(err)
			}
			fs := NewOSFS(d, pages*OSVMPageSize)
			filePages := 2 * pages
			buf := make([]byte, OSVMPageSize)
			for num := int64(0); num < filePages; num++ {
				if err := fs.WriteAt("f", buf, num*OSVMPageSize); err != nil {
					b.Fatal(err)
				}
			}
			if err := fs.Sync("f"); err != nil {
				b.Fatal(err)
			}
			_, before := fs.CacheStats()
			b.SetBytes(OSVMPageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fs.ReadAt("f", buf, int64(i)%filePages*OSVMPageSize); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if _, misses := fs.CacheStats(); misses-before != int64(b.N) {
				b.Fatalf("%d misses in %d reads", misses-before, b.N)
			}
		})
	}
}
