// TPC-H over heterogeneous replicas (paper §9.1.2).
//
// Generates a small TPC-H database, loads it onto an in-process cluster,
// builds the paper's replicas (lineitem by l_orderkey and l_partkey, orders
// by o_orderkey and o_custkey, part by p_partkey), and runs the nine
// benchmark queries twice: with the query scheduler selecting
// co-partitioned replicas through the statistics service, and with runtime
// repartitioning — printing the speedup of the replica-driven plans.
//
// Run: go run ./examples/tpch
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"pangea/internal/cluster"
	"pangea/internal/query"
	"pangea/internal/tpch"
)

const key = "example-key"

func main() {
	dir, err := os.MkdirTemp("", "pangea-tpch-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	dep, err := cluster.StartLocal(key, 3, func(i int) cluster.WorkerConfig {
		return cluster.WorkerConfig{Memory: 48 << 20, DiskDir: filepath.Join(dir, fmt.Sprintf("w%d", i))}
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	e := query.NewExecutor(dep.Client, dep.Workers, 2)

	const sf = 0.005
	d := tpch.Generate(sf, 7)
	fmt.Printf("generated TPC-H scale %.3f: %v rows, %.1f MiB\n",
		sf, d.Counts(), float64(d.TotalBytes())/(1<<20))
	if err := tpch.Load(e, d, 256<<10); err != nil {
		log.Fatal(err)
	}
	groups, err := tpch.BuildReplicas(e, 256<<10)
	if err != nil {
		log.Fatal(err)
	}
	for table, g := range groups {
		fmt.Printf("replicas of %s: %d members, %d colliding objects (%.2f%%)\n",
			table, len(g.Members), g.NumColliding, 100*g.CollidingRatio())
	}

	withReplicas := tpch.NewRunner(e, 2, true)
	repartition := tpch.NewRunner(e, 2, false)
	fmt.Printf("\n%-5s %-14s %-16s %s\n", "query", "replicas (ms)", "repartition (ms)", "speedup")
	for _, q := range tpch.QueryNames {
		start := time.Now()
		a, err := withReplicas.Run(q)
		if err != nil {
			log.Fatalf("%s: %v", q, err)
		}
		ta := time.Since(start)
		start = time.Now()
		b, err := repartition.Run(q)
		if err != nil {
			log.Fatalf("%s: %v", q, err)
		}
		tb := time.Since(start)
		if err := tpch.ResultsEqual(a, b, 1e-9); err != nil {
			log.Fatalf("%s: plans disagree: %v", q, err)
		}
		fmt.Printf("%-5s %-14.1f %-16.1f %.1fx\n", q,
			float64(ta.Microseconds())/1000, float64(tb.Microseconds())/1000,
			float64(tb)/float64(ta))
	}
}
