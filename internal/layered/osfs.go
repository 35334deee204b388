package layered

import (
	"container/list"
	"fmt"

	"pangea/internal/disk"
)

// OSFS models a file system behind the POSIX read/write interface: every
// operation copies between the user buffer and a kernel page cache of
// 4 KB pages under one global LRU with page stealing. Pangea's direct-I/O
// shared-memory path avoids both the copy and the double caching (§4, §9.2.1).
// It is the one kernel page cache of this package: OSVM pages anonymous
// memory through a swap file in its own OSFS.
type OSFS struct {
	d        *disk.Disk
	capPages int
	files    map[string]*osFile
	lru      *list.List // of *fsPage, front = least recently used

	hits, misses      int64
	pageIns, pageOuts int64 // pages read from and written back to the drive
}

type osFile struct {
	name  string
	f     *disk.File // created at the first write-back
	pages []*fsPage  // by page number; nil for a page never touched
}

type fsPage struct {
	file   *osFile
	num    int64
	data   []byte        // nil when not cached
	elem   *list.Element // in OSFS.lru while cached
	dirty  bool
	onDisk bool // written back at least once, so a miss must read it
}

// NewOSFS mounts a simulated OS file system with a page cache of
// cacheBytes on drive d.
func NewOSFS(d *disk.Disk, cacheBytes int64) *OSFS {
	return &OSFS{
		d:        d,
		capPages: int(cacheBytes / OSVMPageSize),
		files:    make(map[string]*osFile),
		lru:      list.New(),
	}
}

func (fs *OSFS) file(name string) *osFile {
	of, ok := fs.files[name]
	if !ok {
		of = &osFile{name: name}
		fs.files[name] = of
	}
	return of
}

func (fs *OSFS) writeBack(p *fsPage) error {
	of := p.file
	if of.f == nil {
		f, err := fs.d.Create("osfs-" + of.name)
		if err != nil {
			return err
		}
		of.f = f
	}
	if _, err := of.f.WriteAt(p.data, p.num*OSVMPageSize); err != nil {
		return fmt.Errorf("layered: osfs write-back: %w", err)
	}
	fs.pageOuts++
	p.dirty, p.onDisk = false, true
	return nil
}

// reclaim evicts LRU pages down to target, writing dirty ones back.
func (fs *OSFS) reclaim(target int) error {
	for fs.lru.Len() > target {
		p := fs.lru.Front().Value.(*fsPage)
		if p.dirty {
			if err := fs.writeBack(p); err != nil {
				return err
			}
		}
		fs.lru.Remove(p.elem)
		p.data, p.elem = nil, nil
	}
	return nil
}

// page returns the cached page num of a file, loading it on a miss. fill
// is false when the caller overwrites the whole page, so there is nothing
// to read.
func (fs *OSFS) page(of *osFile, num int64, fill bool) (*fsPage, error) {
	for int64(len(of.pages)) <= num {
		of.pages = append(of.pages, nil)
	}
	p := of.pages[num]
	if p == nil {
		p = &fsPage{file: of, num: num}
		of.pages[num] = p
	}
	if p.elem != nil {
		fs.hits++
		fs.lru.MoveToBack(p.elem)
		return p, nil
	}
	fs.misses++
	p.data = make([]byte, OSVMPageSize)
	if fill && p.onDisk {
		if _, err := of.f.ReadAt(p.data, num*OSVMPageSize); err != nil {
			p.data = nil
			return nil, fmt.Errorf("layered: osfs read: %w", err)
		}
		fs.pageIns++
	}
	p.elem = fs.lru.PushBack(p)
	if err := fs.reclaim(fs.capPages); err != nil {
		return nil, err
	}
	// Kernel page stealing keeps a reserve free even without demand.
	if fs.lru.Len() > fs.capPages*9/10 {
		if err := fs.reclaim(fs.capPages * 3 / 4); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// WriteAt copies data through the page cache into the file (user→kernel
// copy per page; write-back to disk on eviction or Sync).
func (fs *OSFS) WriteAt(name string, data []byte, off int64) error {
	return fs.writeAt(fs.file(name), data, off)
}

func (fs *OSFS) writeAt(of *osFile, data []byte, off int64) error {
	for len(data) > 0 {
		po := int(off % OSVMPageSize)
		p, err := fs.page(of, off/OSVMPageSize, po != 0 || len(data) < OSVMPageSize)
		if err != nil {
			return err
		}
		n := copy(p.data[po:], data) // the kernel copy
		p.dirty = true
		data = data[n:]
		off += int64(n)
	}
	return nil
}

// ReadAt copies data from the page cache (kernel→user copy), loading
// missing pages from disk.
func (fs *OSFS) ReadAt(name string, out []byte, off int64) error {
	return fs.readAt(fs.file(name), out, off)
}

func (fs *OSFS) readAt(of *osFile, out []byte, off int64) error {
	for len(out) > 0 {
		p, err := fs.page(of, off/OSVMPageSize, true)
		if err != nil {
			return err
		}
		n := copy(out, p.data[off%OSVMPageSize:]) // the kernel copy
		out = out[n:]
		off += int64(n)
	}
	return nil
}

// Sync flushes every dirty page of a file to disk.
func (fs *OSFS) Sync(name string) error {
	of, ok := fs.files[name]
	if !ok {
		return nil
	}
	for _, p := range of.pages {
		if p != nil && p.dirty {
			if err := fs.writeBack(p); err != nil {
				return err
			}
		}
	}
	if of.f == nil {
		return nil // nothing ever written back
	}
	return of.f.Sync()
}

// drop forgets a file's contents: its cached pages leave the cache without
// write-back, and no page of it is read from disk again.
func (fs *OSFS) drop(of *osFile) {
	for _, p := range of.pages {
		if p != nil && p.elem != nil {
			fs.lru.Remove(p.elem)
		}
	}
	of.pages = nil
}

// CacheStats reports page cache hits and misses.
func (fs *OSFS) CacheStats() (hits, misses int64) { return fs.hits, fs.misses }

// CachedBytes reports the memory the page cache holds.
func (fs *OSFS) CachedBytes() int64 { return int64(fs.lru.Len()) * OSVMPageSize }
