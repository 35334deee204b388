package kmeans

import (
	"math"
	"testing"

	"pangea/internal/cluster"
	"pangea/internal/core"
	"pangea/internal/placement"
	"pangea/internal/query"
)

const testKey = "kmeans-test-key"

func startExec(t *testing.T, nodes int, mem int64) *query.Executor {
	t.Helper()
	l, err := cluster.StartLocal(testKey, nodes, func(int) cluster.WorkerConfig {
		return cluster.WorkerConfig{Memory: mem, DiskDir: t.TempDir()}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return query.NewExecutor(l.Client, l.Workers, 2)
}

func loadPoints(t *testing.T, e *query.Executor, name string, pts [][]byte) {
	t.Helper()
	if err := e.Client.CreateSet(name, 128<<10, uint8(core.WriteThrough)); err != nil {
		t.Fatal(err)
	}
	if err := placement.DispatchRandom(e.Client, e.Addrs, name, pts); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodePoint(t *testing.T) {
	p := []float64{1.5, -2.25, 1e9, 0}
	rec := EncodePoint(p)
	got := make([]float64, 4)
	DecodePoint(rec, got)
	for i := range p {
		if got[i] != p[i] {
			t.Errorf("dim %d: %v != %v", i, got[i], p[i])
		}
	}
}

func TestGeneratePointsDeterministic(t *testing.T) {
	a := GeneratePoints(100, 5, 3, 9)
	b := GeneratePoints(100, 5, 3, 9)
	for i := range a {
		if string(a[i]) != string(b[i]) {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestRunConverges(t *testing.T) {
	e := startExec(t, 2, 32<<20)
	const n, dim, k = 3000, 4, 3
	pts := GeneratePoints(n, dim, k, 123)
	loadPoints(t, e, "points", pts)
	model, err := Run(e, "points", Config{K: k, Dim: dim, Iterations: 5, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer Cleanup(e, "points")
	if len(model.Centroids) != k {
		t.Fatalf("centroids = %d, want %d", len(model.Centroids), k)
	}
	var total int64
	for _, c := range model.Assignments {
		total += c
	}
	if total != n {
		t.Errorf("assigned %d points, want %d", total, n)
	}
	if len(model.IterTimes) != 5 {
		t.Errorf("iteration timings = %d, want 5", len(model.IterTimes))
	}
	// Quality: mean distance to the nearest centroid must be far below the
	// data spread (points are drawn ±5 around centres spread over [0,100]).
	assertQuality(t, e, model, dim)
}

func assertQuality(t *testing.T, e *query.Executor, model *Model, dim int) {
	t.Helper()
	var sum float64
	var cnt int64
	for node := range e.Workers {
		s, err := e.Set(node, "points")
		if err != nil {
			t.Fatal(err)
		}
		p := make([]float64, dim)
		err = query.ScanSpec{Set: s}.Run(func(_ int, rec query.Row) error {
			DecodePoint(rec, p)
			best := math.Inf(1)
			for _, c := range model.Centroids {
				var d float64
				for j := range p {
					d += (p[j] - c[j]) * (p[j] - c[j])
				}
				if d < best {
					best = d
				}
			}
			sum += math.Sqrt(best)
			cnt++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if mean := sum / float64(cnt); mean > 10 {
		t.Errorf("mean distance to centroid %.2f; clustering failed", mean)
	}
}

// TestRunWithPagingPressure shrinks worker memory so the norms set spills:
// the run must still complete and assign every point.
func TestRunWithPagingPressure(t *testing.T) {
	e := startExec(t, 2, 600<<10) // tiny pools
	const n, dim, k = 20000, 4, 2
	pts := GeneratePoints(n, dim, k, 77)
	loadPoints(t, e, "points", pts)
	model, err := Run(e, "points", Config{K: k, Dim: dim, Iterations: 3, Threads: 2, PageSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer Cleanup(e, "points")
	var spills int64
	for _, w := range e.Workers {
		spills += w.Pool().Stats().Evictions.Load()
	}
	if spills == 0 {
		t.Error("expected paging under memory pressure")
	}
	var total int64
	for _, c := range model.Assignments {
		total += c
	}
	if total != n {
		t.Errorf("assigned %d points, want %d", total, n)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	e := startExec(t, 1, 8<<20)
	if _, err := Run(e, "missing", Config{}); err == nil {
		t.Error("zero config must be rejected")
	}
}
