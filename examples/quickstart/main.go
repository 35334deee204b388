// Quickstart: the locality set abstraction on a single node.
//
// This example mirrors the paper's §3.2 walkthrough: create a locality set,
// add objects through the sequential write service, scan them with
// concurrent page iterators, shuffle them into partitions, and aggregate
// key-value pairs through the hash service — all inside one unified buffer
// pool whose paging is handled by the data-aware policy.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"sync/atomic"

	"pangea/internal/core"
	"pangea/internal/disk"
	"pangea/internal/services"
)

func main() {
	dir, err := os.MkdirTemp("", "pangea-quickstart-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// One node: a disk array and a unified buffer pool over shared memory.
	arr, err := disk.NewArray(dir, 1, disk.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	pool, err := core.NewPool(core.PoolConfig{Memory: 8 << 20, Array: arr})
	if err != nil {
		log.Fatal(err)
	}

	// createSet("data") — user data is write-through.
	myData, err := pool.CreateSet(core.SetSpec{
		Name: "data", PageSize: 64 << 10, Durability: core.WriteThrough,
	})
	if err != nil {
		log.Fatal(err)
	}

	// addObject / addData — sequential write service.
	w := services.NewSeqWriter(myData)
	for i := 0; i < 10000; i++ {
		if err := w.Add([]byte(fmt.Sprintf("object-%05d", i))); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d objects into %q (%d pages, attrs %v writing)\n",
		w.Count(), myData.Name(), myData.NumPages(), myData.Attrs().Writing)

	// getPageIterators + runWork — concurrent sequential read.
	var scanned atomic.Int64
	if err := services.ScanSet(myData, 4, func(thread int, rec []byte) error {
		scanned.Add(1)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scanned %d objects with 4 worker threads\n", scanned.Load())

	// Shuffle service: one locality set per partition, virtual shuffle
	// buffers let concurrent writers share pages (8 small pages tile each).
	shuffled, err := services.NewShuffle(pool, "shuffled", 4, 256<<10, 32<<10)
	if err != nil {
		log.Fatal(err)
	}
	bufs := shuffled.Writer()
	if err := services.ScanSet(myData, 1, func(_ int, rec []byte) error {
		part := int(rec[len(rec)-1]) % shuffled.Partitions()
		return bufs[part].Add(rec)
	}); err != nil {
		log.Fatal(err)
	}
	if err := services.CloseWriters(bufs); err != nil {
		log.Fatal(err)
	}
	if err := shuffled.Close(); err != nil {
		log.Fatal(err)
	}
	// A partition is read once: each page is freed as its reader releases it.
	for p := 0; p < shuffled.Partitions(); p++ {
		var n int
		if err := shuffled.ReadPartition(p, 1, func([]byte) error { n++; return nil }); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("partition %d holds %d objects\n", p, n)
	}
	if err := shuffled.Drop(); err != nil {
		log.Fatal(err)
	}

	// Hash service: virtual hash buffer with page-local tables.
	aggSet, err := pool.CreateSet(core.SetSpec{Name: "agg", PageSize: 64 << 10})
	if err != nil {
		log.Fatal(err)
	}
	h, err := services.NewInt64HashBuffer(aggSet, 4, services.Sum)
	if err != nil {
		log.Fatal(err)
	}
	if err := services.ScanSet(myData, 1, func(_ int, rec []byte) error {
		key := rec[len(rec)-2:] // group objects by their last two digits
		return h.Upsert(key, 1)
	}); err != nil {
		log.Fatal(err)
	}
	if err := h.Close(); err != nil {
		log.Fatal(err)
	}
	res, err := h.Result()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hash aggregation produced %d groups\n", len(res))

	st := pool.Stats()
	fmt.Printf("pool: %d evictions, %d spills, %d loads, %d write-through flushes\n",
		st.Evictions.Load(), st.Spills.Load(), st.Loads.Load(), st.FlushWrites.Load())
}
