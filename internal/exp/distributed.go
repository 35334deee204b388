package exp

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"pangea/internal/cluster"
	"pangea/internal/core"
	"pangea/internal/kmeans"
	"pangea/internal/layered"
	"pangea/internal/paging"
	"pangea/internal/placement"
	"pangea/internal/query"
	"pangea/internal/tpch"
)

// clusterKey is the private key of the harness's deployments.
const clusterKey = "pangea-bench-key"

// testCluster is one in-process deployment: a manager plus workers on
// localhost, each with its own buffer pool and throttled drives.
type testCluster struct {
	*cluster.Local
	exec *query.Executor
}

// startCluster starts a manager and nodes workers, each with its drives
// under tagDir(o, tag). done closes the deployment and removes the drives.
func startCluster(o Options, tag string, nodes int, memPerNode int64, policy func() core.Policy) (tc *testCluster, done func(), err error) {
	dir := tagDir(o, tag)
	l, err := cluster.StartLocal(clusterKey, nodes, func(i int) cluster.WorkerConfig {
		cfg := cluster.WorkerConfig{
			Memory:     memPerNode,
			DiskDir:    filepath.Join(dir, fmt.Sprintf("w%d", i)),
			DiskConfig: diskConfig(),
		}
		if policy != nil {
			cfg.Policy = policy()
		}
		return cfg
	})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, nil, err
	}
	done = func() {
		_ = l.Close()
		_ = os.RemoveAll(dir)
	}
	return &testCluster{Local: l, exec: query.NewExecutor(l.Client, l.Workers, 2)}, done, nil
}

// --- Figs 3 and 4: the k-means study -----------------------------------------

// kmeansResult is one (system, scale) cell of the study.
type kmeansResult struct {
	latency time.Duration
	memory  int64
	failed  string // non-empty on failure, e.g. "FAIL(blocked)"
}

type kmeansStudy struct {
	scales  []int // ×1, ×2, ×3 point multipliers
	systems []string
	cells   map[string]map[int]kmeansResult
}

var (
	studyMu    sync.Mutex
	studyCache = map[bool]*kmeansStudy{}
)

// pangeaPolicies is the Fig 3 policy lineup for the Pangea rows.
var pangeaPolicies = []namedPolicy{
	{"Pangea w/ Data-aware", func() core.Policy { return core.NewDataAware() }},
	{"Pangea w/ LRU", func() core.Policy { return paging.NewLRU() }},
	{"Pangea w/ MRU", func() core.Policy { return paging.NewMRU() }},
	{"Pangea w/ DBMIN-1", func() core.Policy { return paging.NewDBMIN1() }},
	{"Pangea w/ DBMIN-1000", func() core.Policy { return paging.NewDBMIN1000() }},
	{"Pangea w/ DBMIN-adaptive", func() core.Policy { return paging.NewDBMINAdaptive() }},
}

// runKMeansStudy executes the full Fig 3 / Fig 4 grid once and caches it.
func runKMeansStudy(o Options) (*kmeansStudy, error) {
	studyMu.Lock()
	defer studyMu.Unlock()
	if s, ok := studyCache[o.Quick]; ok {
		return s, nil
	}

	nodes := o.pick(2, 3)
	baseN := o.pick(8000, 30000)
	iters := o.pick(2, 5)
	poolPerNode := o.pick64(1<<20, 2<<20)
	const dim = 10
	cfg := kmeans.Config{K: 10, Dim: dim, Iterations: iters, Threads: 2, PageSize: 128 << 10}

	s := &kmeansStudy{scales: []int{1, 2, 3}, cells: map[string]map[int]kmeansResult{}}
	record := func(system string, scale int, r kmeansResult) {
		if s.cells[system] == nil {
			s.cells[system] = map[int]kmeansResult{}
			s.systems = append(s.systems, system)
		}
		s.cells[system][scale] = r
	}

	for _, scale := range s.scales {
		n := baseN * scale
		pts := kmeans.GeneratePoints(n, dim, cfg.K, 99)

		// Pangea under each paging policy.
		for _, pp := range pangeaPolicies {
			tc, done, err := startCluster(o, fmt.Sprintf("fig3-%s-%d", pp.Name, scale), nodes, poolPerNode, pp.Policy)
			if err != nil {
				return nil, err
			}
			res := kmeansResult{}
			err = func() error {
				if err := tc.exec.Client.CreateSet("points", 128<<10, uint8(core.WriteThrough)); err != nil {
					return err
				}
				if err := placement.DispatchRandom(tc.exec.Client, tc.exec.Addrs, "points", pts); err != nil {
					return err
				}
				model, err := kmeans.Run(tc.exec, "points", cfg)
				if err != nil {
					return err
				}
				res.latency = model.TotalTime()
				for _, w := range tc.Workers {
					res.memory += w.Pool().PeakBytes()
				}
				return nil
			}()
			if err != nil {
				if errors.Is(err, paging.ErrDBMINBlocked) {
					res.failed = "FAIL(blocked)"
				} else if errors.Is(err, core.ErrNoEvictable) {
					res.failed = "FAIL(exhausted)"
				} else {
					res.failed = "FAIL"
				}
			}
			record(pp.Name, scale, res)
			done()
		}

		// The layered Spark configurations (single-node engine over the
		// same aggregate memory — see DESIGN.md substitutions).
		total := poolPerNode * int64(nodes)
		sparkSetups := []struct {
			name    string
			storage func() (*layered.Storage, func(), error)
			pool    int64
		}{
			{"Spark w/ HDFS", func() (*layered.Storage, func(), error) {
				arr, done, err := newDrives(o, fmt.Sprintf("fig3-hdfs-%d", scale), 1, diskConfig())
				if err != nil {
					return nil, nil, err
				}
				return layered.NewHDFSStorage(arr, total/3), done, nil
			}, total * 2 / 3},
			{"Spark w/ Alluxio", func() (*layered.Storage, func(), error) {
				// Alluxio gets the lion's share (the paper gave it 15 of
				// 50 GB), leaving Spark a thin RDD cache.
				return layered.NewAlluxioStorage(total * 3 / 2), func() {}, nil
			}, total / 4},
			{"Spark w/ Ignite", func() (*layered.Storage, func(), error) {
				// The off-heap region fits ×1 but not ×2 — the segfault.
				return layered.NewIgniteStorage(int64(float64(baseN) * 100 * 1.6)), func() {}, nil
			}, total / 4},
		}
		for _, setup := range sparkSetups {
			st, cleanup, err := setup.storage()
			if err != nil {
				return nil, err
			}
			res := kmeansResult{}
			err = func() error {
				if err := layered.LoadPointsToStorage(st, "points", pts, 2000); err != nil {
					return err
				}
				model, err := layered.SparkKMeans(st, "points", layered.SparkConfig{
					K: cfg.K, Dim: dim, Iterations: iters,
					StoragePool: setup.pool, ExecPool: total / 8,
				})
				if err != nil {
					return err
				}
				res.latency = model.TotalTime()
				res.memory = model.PeakMemory
				return nil
			}()
			if err != nil {
				switch {
				case errors.Is(err, layered.ErrIgniteCrash):
					res.failed = "FAIL(segfault)"
				case errors.Is(err, layered.ErrAlluxioFull):
					res.failed = "FAIL(memory)"
				default:
					res.failed = "FAIL"
				}
			}
			record(setup.name, scale, res)
			cleanup()
		}
	}
	studyCache[o.Quick] = s
	return s, nil
}

// Fig3 reports the k-means latency comparison.
func Fig3(o Options) (*Table, error) {
	s, err := runKMeansStudy(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig3",
		Title:  "k-means latency (ms), initialization + iterations",
		Header: []string{"system", "x1 points", "x2 points", "x3 points"},
	}
	for _, sys := range s.systems {
		row := []string{sys}
		for _, scale := range s.scales {
			c := s.cells[sys][scale]
			if c.failed != "" {
				row = append(row, c.failed)
			} else {
				row = append(row, ms(c.latency))
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper Fig 3: Pangea data-aware up to 6× faster than Spark; DBMIN-adaptive and DBMIN-1000 block; Ignite segfaults at ≥2×")
	return t, nil
}

// Fig4 reports the memory usage of the same study.
func Fig4(o Options) (*Table, error) {
	s, err := runKMeansStudy(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig4",
		Title:  "k-means peak memory usage (MiB)",
		Header: []string{"system", "x1 points", "x2 points", "x3 points"},
	}
	show := map[string]bool{
		"Pangea w/ Data-aware": true,
		"Spark w/ HDFS":        true,
		"Spark w/ Alluxio":     true,
		"Spark w/ Ignite":      true,
	}
	for _, sys := range s.systems {
		if !show[sys] {
			continue
		}
		row := []string{sys}
		for _, scale := range s.scales {
			c := s.cells[sys][scale]
			if c.failed != "" {
				row = append(row, c.failed)
			} else {
				row = append(row, mb(c.memory))
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper Fig 4: Spark over Alluxio/Ignite double-cache the input and use the most memory; Pangea's single pool uses the least for the work done")
	return t, nil
}

// --- Fig 5: TPC-H -------------------------------------------------------------

// fig5Runs is how many times Fig5 runs each query under each plan.
const fig5Runs = 5

// median returns the median of ds, reordering them.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// Fig5 runs the nine queries with heterogeneous replicas (the Pangea plan)
// and with runtime repartition (the layered plan) and reports both.
func Fig5(o Options) (*Table, error) {
	nodes := o.pick(3, 4)
	sf := 0.002
	if !o.Quick {
		sf = 0.01
	}
	tc, done, err := startCluster(o, "fig5", nodes, 32<<20, nil)
	if err != nil {
		return nil, err
	}
	defer done()
	d := tpch.Generate(sf, 17)
	if err := tpch.Load(tc.exec, d, 256<<10); err != nil {
		return nil, err
	}
	if _, err := tpch.BuildReplicas(tc.exec, 256<<10); err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "fig5",
		Title:  fmt.Sprintf("TPC-H latency (ms), scale %.3f, %d workers", sf, nodes),
		Header: []string{"query", "pangea (replicas)", "spark-like (repartition)", "speedup"},
	}
	plans := []struct {
		name string
		r    *tpch.Runner
	}{{"pangea", tpch.NewRunner(tc.exec, 2, true)}, {"spark-like", tpch.NewRunner(tc.exec, 2, false)}}
	for _, q := range tpch.QueryNames {
		// Each cell is the median of fig5Runs runs of its plan, the two plans
		// taking turns, so one scheduler stall cannot decide a row.
		var times [2][fig5Runs]time.Duration
		var res [2]tpch.Result
		for run := range fig5Runs {
			for i, p := range plans {
				start := time.Now()
				r, err := p.r.Run(q)
				if err != nil {
					return nil, fmt.Errorf("fig5 %s %s: %w", q, p.name, err)
				}
				times[i][run] = time.Since(start)
				res[i] = r
			}
			if err := tpch.ResultsEqual(res[0], res[1], 1e-9); err != nil {
				return nil, fmt.Errorf("fig5 %s: plans disagree: %w", q, err)
			}
		}
		tA, tB := median(times[0][:]), median(times[1][:])
		t.AddRow(q, ms(tA), ms(tB), fmt.Sprintf("%.1fx", float64(tB)/float64(tA)))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("each cell is the median of %d runs of its plan, the two plans taking turns", fig5Runs),
		"paper Fig 5: replica-driven plans up to 20× faster (Q17); queries without a partitioned-join benefit (Q01, Q06) roughly even")
	return t, nil
}

// --- Fig 6: recovery -------------------------------------------------------------

// Fig6 measures heterogeneous-replica recovery after a single-node failure
// at three cluster sizes.
func Fig6(o Options) (*Table, error) {
	sizes := []int{4, 6, 8}
	sf := 0.002
	if !o.Quick {
		sizes = []int{10, 20, 30}
		sf = 0.005
	}
	t := &Table{
		ID:     "fig6",
		Title:  fmt.Sprintf("single-node failure recovery of lineitem (scale %.3f)", sf),
		Header: []string{"workers", "recovery ms", "colliding objects", "colliding %"},
	}
	for _, k := range sizes {
		row, err := fig6Run(o, k, sf)
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper Fig 6 / §7: ~5s to recover 79GB on 10 nodes; colliding ratio falls from <9% (10 nodes) to 3% (20) to ~0 (30)")
	return t, nil
}

// fig6Run loads lineitem at scale sf onto a k-worker cluster, builds its
// replication group, closes one worker and times its recovery.
func fig6Run(o Options, k int, sf float64) ([]string, error) {
	tc, done, err := startCluster(o, fmt.Sprintf("fig6-%d", k), k, 8<<20, nil)
	if err != nil {
		return nil, err
	}
	defer done()
	d := tpch.Generate(sf, 23)
	if err := tc.exec.Client.CreateSet("lineitem", 128<<10, 0); err != nil {
		return nil, err
	}
	if err := placement.DispatchRandom(tc.exec.Client, tc.exec.Addrs, "lineitem", d.Lineitem); err != nil {
		return nil, err
	}
	np := placement.PartitionsFor(k)
	parts := []*placement.Partitioner{
		{Scheme: "hash(l_orderkey)", NumPartitions: np, Key: tpch.LOrderKey},
		{Scheme: "hash(l_partkey)", NumPartitions: np, Key: tpch.LPartKey},
	}
	g, err := placement.BuildGroup(tc.exec.Client, tc.exec.Addrs, "lineitem", parts, core.SetSpec{PageSize: 128 << 10}, 1)
	if err != nil {
		return nil, err
	}
	const failed = 0
	_ = tc.Workers[failed].Close()
	start := time.Now()
	if _, err := placement.Recover(tc.exec.Client, tc.exec.Addrs, g, []int{failed}); err != nil {
		return nil, err
	}
	return []string{fmt.Sprintf("%d", k), ms(time.Since(start)),
		fmt.Sprintf("%d", g.NumColliding), fmt.Sprintf("%.2f%%", 100*g.CollidingRatio())}, nil
}

// --- §7 colliding-object study ----------------------------------------------------

// S7Colliding counts colliding objects without moving data, across the
// paper's cluster sizes, against the n/k² expectation for three
// organizations. (Registered as s7c; the s7 slot now holds the
// multi-tenant fairness experiment.)
func S7Colliding(o Options) (*Table, error) {
	n := o.pick(20000, 100000)
	d := tpch.Generate(float64(n)/6_000_000, 31)
	t := &Table{
		ID:     "s7c",
		Title:  fmt.Sprintf("colliding objects for two lineitem partitionings (%d rows)", len(d.Lineitem)),
		Header: []string{"workers", "colliding", "ratio", "expected ~1/k^2"},
	}
	for _, k := range []int{10, 20, 30} {
		parts := []*placement.Partitioner{
			{Scheme: "hash(l_orderkey)", NumPartitions: placement.PartitionsFor(k), Key: tpch.LOrderKey},
			{Scheme: "hash(l_partkey)", NumPartitions: placement.PartitionsFor(k), Key: tpch.LPartKey},
		}
		c := placement.CountColliding(d.Lineitem, parts, k)
		ratio := float64(c) / float64(len(d.Lineitem))
		t.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%d", c),
			fmt.Sprintf("%.4f%%", 100*ratio),
			fmt.Sprintf("%.4f%%", 100/float64(k*k)))
	}
	t.Notes = append(t.Notes,
		"paper §7: 53.39M colliding of 5.98B on 10 nodes, 15M on 20, none observed on 30 — a sharply declining ratio")
	return t, nil
}

// --- Table 2: SLOC breakdown -------------------------------------------------------

// tab2Components maps the paper's Table 2 modules onto the files that
// implement them here. TestTab2FilesExist keeps it honest in -short runs:
// deleting or renaming a listed file fails there, not only in the full
// experiment run.
var tab2Components = []struct {
	name  string
	files []string
}{
	{"Scan & batches", []string{"internal/query/scanspec.go", "internal/query/batch.go", "internal/query/iter.go"}},
	{"Filter: predicate algebra", []string{"internal/query/predicate.go"}},
	{"Join", []string{"internal/query/hashjoin.go"}},
	{"Build broadcast hash map", []string{"internal/services/joinmap.go"}},
	{"Hash service (aggregate: local+final)", []string{"internal/services/hash.go", "internal/query/agg.go"}},
	{"Pipeline & scheduling", []string{"internal/query/scheduler.go"}},
	{"TPC-H queries", []string{"internal/tpch/queries.go"}},
}

// Tab2 counts the source lines of the query processor's modules, the
// analogue of the paper's Table 2 effort breakdown.
func Tab2(Options) (*Table, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "tab2",
		Title:  "source code breakdown of the Pangea-based relational query processor",
		Header: []string{"component", "SLOC"},
	}
	var total int
	for _, c := range tab2Components {
		var n int
		for _, f := range c.files {
			sloc, err := countSLOC(filepath.Join(root, f))
			if err != nil {
				return nil, err
			}
			n += sloc
		}
		total += n
		t.AddRow(c.name, fmt.Sprintf("%d", n))
	}
	t.AddRow("Total", fmt.Sprintf("%d", total))
	t.Notes = append(t.Notes, "paper Table 2 totals 5889 SLOC of C++ for eleven modules")
	return t, nil
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("exp: go.mod not found above working directory")
		}
		dir = parent
	}
}

// countSLOC counts non-blank, non-comment-only lines.
func countSLOC(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		s := strings.TrimSpace(line)
		if s == "" || strings.HasPrefix(s, "//") {
			continue
		}
		n++
	}
	return n, nil
}
