package layered

import (
	"fmt"

	"pangea/internal/disk"
)

// HDFSBlockSize is the (scaled) HDFS block size.
const HDFSBlockSize = 1 << 20

// HDFS models a single-node slice of an HDFS deployment: a name node
// mapping files to blocks, data nodes writing blocks round-robin over the
// drives through the OS buffer cache, and a client protocol that copies
// every byte once more between client and server — the copy libhdfs3
// cannot avoid and Pangea's shared-memory path does (§9.2.1).
type HDFS struct {
	fss    []*OSFS // one buffer-cached file system per drive
	blocks map[string][]hdfsBlock
}

type hdfsBlock struct {
	diskIdx int
	name    string
	size    int
}

// NewHDFS builds the baseline over an array of drives, giving each drive's
// OS layer an equal share of cacheBytes of buffer cache.
func NewHDFS(arr *disk.Array, cacheBytes int64) *HDFS {
	h := &HDFS{blocks: make(map[string][]hdfsBlock)}
	per := cacheBytes / int64(arr.Len())
	for i := 0; i < arr.Len(); i++ {
		h.fss = append(h.fss, NewOSFS(arr.Disk(i), per))
	}
	return h
}

// Create starts a new file, dropping any previous version.
func (h *HDFS) Create(name string) {
	h.blocks[name] = nil
}

// Append writes data to the end of a file, block by block.
func (h *HDFS) Append(name string, data []byte) error {
	// Client-side copy: the client buffers the write before shipping it to
	// the data node (the client/server copy of the protocol).
	shipped := append([]byte(nil), data...)
	for len(shipped) > 0 {
		blocks := h.blocks[name]
		if len(blocks) == 0 || blocks[len(blocks)-1].size >= HDFSBlockSize {
			idx := len(blocks) % len(h.fss)
			blocks = append(blocks, hdfsBlock{
				diskIdx: idx,
				name:    fmt.Sprintf("%s-blk-%d", name, len(blocks)),
			})
			h.blocks[name] = blocks
		}
		b := &h.blocks[name][len(h.blocks[name])-1]
		n := HDFSBlockSize - b.size
		if n > len(shipped) {
			n = len(shipped)
		}
		if err := h.fss[b.diskIdx].WriteAt(b.name, shipped[:n], int64(b.size)); err != nil {
			return err
		}
		b.size += n
		shipped = shipped[n:]
	}
	return nil
}

// Sync flushes all of a file's blocks to their drives.
func (h *HDFS) Sync(name string) error {
	for _, b := range h.blocks[name] {
		if err := h.fss[b.diskIdx].Sync(b.name); err != nil {
			return err
		}
	}
	return nil
}

// Scan streams a file's contents to fn in block-sized chunks, paying the
// server→client copy per chunk.
func (h *HDFS) Scan(name string, fn func(chunk []byte) error) error {
	for _, b := range h.blocks[name] {
		server := make([]byte, b.size)
		if err := h.fss[b.diskIdx].ReadAt(b.name, server, 0); err != nil {
			return err
		}
		// Server→client protocol copy.
		client := append([]byte(nil), server...)
		if err := fn(client); err != nil {
			return err
		}
	}
	return nil
}

// Size reports a file's logical size.
func (h *HDFS) Size(name string) int64 {
	var n int64
	for _, b := range h.blocks[name] {
		n += int64(b.size)
	}
	return n
}
