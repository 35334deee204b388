// Package layered implements the layered-system baselines the paper
// compares Pangea against (§9): an OS file system with a kernel page cache
// (4 KB pages, one LRU with page stealing), OS virtual memory paging
// through a swap file in that same page cache, an HDFS-like distributed
// file system (name node + client/server copies), an Alluxio-like
// memory-capped in-memory file system with serialization at the boundary,
// an Ignite-like shared store with a 16 KB hard page size and compaction,
// a Spark-like engine (separate storage/execution memory pools,
// wave-of-tasks, per-core shuffle spill files), and a Redis-like
// client/server key-value store.
//
// Each baseline reproduces the *mechanisms* the paper blames for layering
// overhead — extra copies at layer boundaries, redundant caching, and
// un-coordinated paging — with real memory copies and the same throttled
// disk substrate Pangea runs on, so measured gaps arise from the mechanisms
// rather than hard-coded constants.
package layered

import "pangea/internal/disk"

// OSVMPageSize is the 4 KB page size of the OS page cache.
const OSVMPageSize = 4096

// OSVM models process anonymous memory under OS paging: a bump allocator
// over the address space of one swap file, paged through the kernel page
// cache (OSFS) — a global LRU of resident 4 KB pages with page stealing, a
// reclaimer that evicts down to a low watermark once residency crosses a
// high watermark, even when there is no allocation pressure. §9.2.1 credits
// much of Pangea's win over OS VM to avoiding exactly this behaviour plus
// the small page-out granularity.
type OSVM struct {
	fs       *OSFS
	swap     *osFile
	nextAddr int64
}

// NewOSVM builds a VM with the given resident budget backed by a swap file
// on d.
func NewOSVM(d *disk.Disk, memBytes int64) *OSVM {
	fs := NewOSFS(d, memBytes)
	return &OSVM{fs: fs, swap: fs.file("swap")}
}

// Malloc reserves n bytes of heap address space, 16-byte aligned the way a
// libc allocator packs small objects. Pages materialize on first touch,
// like anonymous mmap behind the heap.
func (vm *OSVM) Malloc(n int64) int64 {
	addr := vm.nextAddr
	vm.nextAddr += (n + 15) &^ 15
	return addr
}

// Write copies data into virtual memory at addr.
func (vm *OSVM) Write(addr int64, data []byte) error {
	return vm.fs.writeAt(vm.swap, data, addr)
}

// Read copies from virtual memory at addr into out.
func (vm *OSVM) Read(addr int64, out []byte) error {
	return vm.fs.readAt(vm.swap, out, addr)
}

// FreeAll releases the whole address space at once (the cheap bulk
// deallocation both Pangea and Alluxio enjoy; per-object free is what the
// paper's OS VM deallocation curve pays for).
func (vm *OSVM) FreeAll() {
	vm.fs.drop(vm.swap)
	vm.nextAddr = 0
}

// PageOuts reports pages written to swap (the sar -B page-out count the
// paper samples).
func (vm *OSVM) PageOuts() int64 { return vm.fs.pageOuts }

// PageIns reports pages read back from swap.
func (vm *OSVM) PageIns() int64 { return vm.fs.pageIns }

// SwapBytes reports total bytes written to swap.
func (vm *OSVM) SwapBytes() int64 { return vm.fs.pageOuts * OSVMPageSize }
