// Distributed k-means on a Pangea deployment (paper §9.1.1).
//
// Spins up an in-process cluster of three workers, loads points as
// write-through user data, and runs the MLlib-style computation: norm
// precompute into a transient write-back set, then Lloyd iterations through
// the hash service — the workload of Fig 3.
//
// Run: go run ./examples/kmeans
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"pangea/internal/cluster"
	"pangea/internal/core"
	"pangea/internal/kmeans"
	"pangea/internal/placement"
	"pangea/internal/query"
)

const key = "example-key"

func main() {
	dir, err := os.MkdirTemp("", "pangea-kmeans-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	dep, err := cluster.StartLocal(key, 3, func(i int) cluster.WorkerConfig {
		return cluster.WorkerConfig{Memory: 16 << 20, DiskDir: filepath.Join(dir, fmt.Sprintf("w%d", i))}
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	cl, workers := dep.Client, dep.Workers
	e := query.NewExecutor(cl, workers, 2)

	const n, dim, k = 30000, 10, 8
	fmt.Printf("loading %d %d-dimensional points onto %d workers\n", n, dim, len(workers))
	pts := kmeans.GeneratePoints(n, dim, k, 2024)
	if err := cl.CreateSet("points", 256<<10, uint8(core.WriteThrough)); err != nil {
		log.Fatal(err)
	}
	if err := placement.DispatchRandom(cl, e.Addrs, "points", pts); err != nil {
		log.Fatal(err)
	}

	model, err := kmeans.Run(e, "points", kmeans.Config{K: k, Dim: dim, Iterations: 5, Threads: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer kmeans.Cleanup(e, "points")

	fmt.Printf("initialization: %v\n", model.InitTime)
	for i, it := range model.IterTimes {
		fmt.Printf("iteration %d: %v\n", i+1, it)
	}
	fmt.Println("cluster sizes:", model.Assignments)
	for c, cen := range model.Centroids {
		fmt.Printf("centroid %d: [%.1f %.1f ...]\n", c, cen[0], cen[1])
	}
}
