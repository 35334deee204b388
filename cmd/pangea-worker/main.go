// Command pangea-worker runs one Pangea worker node: the storage process
// owning the node's unified buffer pool, file system and services, serving
// the data-proxy protocol (paper §3.3, Fig 2). It registers itself with the
// manager at startup.
//
// The pool's arena is an anonymous mapping private to this process, so a
// client in another process reaches the node's pages only through the
// worker's RPCs, which copy them onto the socket; the zero-copy data proxy
// of Fig 2 attaches only inside a process that runs the worker.
//
// Usage:
//
//	pangea-worker -listen :7801 -manager 127.0.0.1:7700 -key <private-key> \
//	    -memory 268435456 -dir /data/pangea -disks 2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"pangea/internal/cluster"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:0", "address to listen on")
		manager = flag.String("manager", "", "manager address (required)")
		key     = flag.String("key", "", "cluster private key (required)")
		memory  = flag.Int64("memory", 256<<20, "buffer pool size in bytes")
		dir     = flag.String("dir", "", "directory for the node's drives (required)")
		disks   = flag.Int("disks", 1, "number of simulated drives")
	)
	flag.Parse()
	if *manager == "" || *key == "" || *dir == "" {
		fmt.Fprintln(os.Stderr, "pangea-worker: -manager, -key and -dir are required")
		os.Exit(2)
	}
	w, err := cluster.NewWorker(*listen, cluster.WorkerConfig{
		PrivateKey: *key,
		Memory:     *memory,
		DiskDir:    *dir,
		Disks:      *disks,
		Logf:       log.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pangea-worker:", err)
		os.Exit(1)
	}
	cl := cluster.NewClient(*manager, *key)
	id, err := cl.RegisterWorker(w.Addr())
	if err != nil {
		fmt.Fprintln(os.Stderr, "pangea-worker: register:", err)
		os.Exit(1)
	}
	fmt.Printf("pangea-worker %d listening on %s (pool %d bytes, %d disks)\n", id, w.Addr(), *memory, *disks)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	_ = w.Close()
}
