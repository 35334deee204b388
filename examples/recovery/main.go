// Heterogeneous-replica failure recovery (paper §7, Fig 6).
//
// Loads a lineitem table onto five workers, builds two differently
// partitioned replicas that double as both physical designs and failure
// protection, records the colliding objects in a dedicated set, kills one
// worker, and recovers every replica by re-running partitioners over the
// survivors — verifying not a single record is lost.
//
// Run: go run ./examples/recovery
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"pangea/internal/cluster"
	"pangea/internal/core"
	"pangea/internal/placement"
	"pangea/internal/tpch"
)

const key = "example-key"

func main() {
	dir, err := os.MkdirTemp("", "pangea-recovery-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	dep, err := cluster.StartLocal(key, 5, func(i int) cluster.WorkerConfig {
		return cluster.WorkerConfig{Memory: 16 << 20, DiskDir: filepath.Join(dir, fmt.Sprintf("w%d", i))}
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	cl, workers, addrs := dep.Client, dep.Workers, dep.Addrs

	d := tpch.Generate(0.003, 41)
	fmt.Printf("lineitem: %d rows\n", len(d.Lineitem))
	if err := cl.CreateSet("lineitem", 128<<10, 0); err != nil {
		log.Fatal(err)
	}
	if err := placement.DispatchRandom(cl, addrs, "lineitem", d.Lineitem); err != nil {
		log.Fatal(err)
	}

	parts := []*placement.Partitioner{
		{Scheme: "hash(l_orderkey)", NumPartitions: 20, Key: tpch.LOrderKey},
		{Scheme: "hash(l_partkey)", NumPartitions: 20, Key: tpch.LPartKey},
	}
	g, err := placement.BuildGroup(cl, addrs, "lineitem", parts, core.SetSpec{PageSize: 128 << 10}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replication group: %d members, %d colliding objects (%.2f%%) stored separately\n",
		len(g.Members), g.NumColliding, 100*g.CollidingRatio())

	const failed = 2
	fmt.Printf("killing worker %d...\n", failed)
	if err := workers[failed].Close(); err != nil {
		log.Fatal(err)
	}
	survivors := append(append([]string{}, addrs[:failed]...), addrs[failed+1:]...)

	start := time.Now()
	reports, err := placement.Recover(cl, addrs, g, []int{failed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery finished in %v\n", time.Since(start))
	for _, rep := range reports {
		n, err := placement.CountSet(cl, survivors, rep.Member)
		if err != nil {
			log.Fatal(err)
		}
		status := "OK"
		if n != int64(len(d.Lineitem)) {
			status = fmt.Sprintf("MISSING %d", int64(len(d.Lineitem))-n)
		}
		fmt.Printf("  %-28s recovered %5d (%d via re-partition, %d via colliding set) -> %d rows [%s]\n",
			rep.Member, rep.Recovered(), rep.FromSource, rep.FromColliding, n, status)
	}
}
