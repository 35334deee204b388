// Package kmeans implements the paper's k-means distributed benchmark
// (§9.1.1), mirroring the Spark MLlib structure it compares against: an
// initialization step that computes point norms and samples the starting
// centroids, followed by Lloyd iterations that broadcast the centroids and
// aggregate per-cluster sums.
//
// On Pangea the input points are user data in a write-through locality set;
// the points-with-norms dataset produced by initialization is transient job
// data in a write-back set (exactly the two sets the paper configures); and
// per-iteration cluster sums flow through the hash service. When the
// points-with-norms working set exceeds the buffer pool, the paging system
// spills and reloads it under the configured policy — the regime where
// Fig 3 separates the paging strategies.
package kmeans

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"pangea/internal/cluster"
	"pangea/internal/core"
	"pangea/internal/query"
	"pangea/internal/services"
)

// EncodePoint packs a point as little-endian float64s.
func EncodePoint(p []float64) []byte {
	out := make([]byte, 8*len(p))
	for i, v := range p {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// f64 reads a little-endian float64.
func f64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// DecodePoint unpacks an encoded point into dst (sized to the dimension).
func DecodePoint(rec []byte, dst []float64) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec[8*i:]))
	}
}

// GeneratePoints builds n deterministic dim-dimensional points drawn around
// k latent cluster centres, encoded for loading.
func GeneratePoints(n, dim, k int, seed uint64) [][]byte {
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	f64 := func() float64 { return float64(next()>>11) / (1 << 53) }
	centres := make([][]float64, k)
	for c := range centres {
		centres[c] = make([]float64, dim)
		for j := range centres[c] {
			centres[c][j] = f64() * 100
		}
	}
	out := make([][]byte, n)
	p := make([]float64, dim)
	for i := 0; i < n; i++ {
		c := centres[next()%uint64(k)]
		for j := range p {
			p[j] = c[j] + (f64()-0.5)*10
		}
		out[i] = EncodePoint(p)
	}
	return out
}

// Config parameterises one run.
type Config struct {
	K          int
	Dim        int
	Iterations int
	Threads    int
	// PageSize is the page size for the transient points-with-norms set
	// (the paper uses 256MB splits; MB-scale here).
	PageSize int64
}

// Model is the result of a run, with the per-phase timings Fig 3 plots.
type Model struct {
	Centroids [][]float64
	InitTime  time.Duration
	IterTimes []time.Duration
	// Assignments counts points per cluster after the last iteration.
	Assignments []int64
}

// TotalTime sums initialization and iteration latencies.
func (m *Model) TotalTime() time.Duration {
	t := m.InitTime
	for _, it := range m.IterTimes {
		t += it
	}
	return t
}

// normsSetName is the per-run transient dataset of points with norms.
func normsSetName(input string) string { return input + ":norms" }

// Run executes distributed k-means over the executor. inputSet must exist
// on every worker and hold encoded points of cfg.Dim dimensions.
func Run(e *query.Executor, inputSet string, cfg Config) (*Model, error) {
	if cfg.K < 1 || cfg.Dim < 1 || cfg.Iterations < 1 {
		return nil, fmt.Errorf("kmeans: invalid config %+v", cfg)
	}
	if cfg.Threads < 1 {
		cfg.Threads = 2
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 256 << 10
	}
	normsSet := normsSetName(inputSet)
	recSize := 8 * (cfg.Dim + 1)

	// --- Initialization: compute norms, materialize transient job data,
	// sample initial centroids (the first K points each scan thread sees,
	// taken in node then thread order). Each scan thread writes its own
	// pages through its own SeqWriter, the paper's one writer a thread.
	start := time.Now()
	centSamples := make([][][][]float64, len(e.Workers)) // node, thread, sample
	err := e.Parallel(func(node int, w *cluster.Worker) error {
		in, err := e.Set(node, inputSet)
		if err != nil {
			return err
		}
		out, err := w.Pool().CreateSet(core.SetSpec{
			Name:       normsSet,
			PageSize:   cfg.PageSize,
			Durability: core.WriteBack,
		})
		if err != nil {
			return err
		}
		wtrs := make([]*services.SeqWriter, cfg.Threads)
		recs := make([][]byte, cfg.Threads)
		points := make([][]float64, cfg.Threads)
		for t := range wtrs {
			wtrs[t] = services.NewSeqWriter(out)
			recs[t] = make([]byte, recSize)
			points[t] = make([]float64, cfg.Dim)
		}
		samples := make([][][]float64, cfg.Threads)
		centSamples[node] = samples
		err = (query.ScanSpec{Set: in, Threads: cfg.Threads}).Run(func(t int, raw []byte) error {
			rec, point := recs[t], points[t]
			DecodePoint(raw, point)
			var norm float64
			for _, v := range point {
				norm += v * v
			}
			binary.LittleEndian.PutUint64(rec[0:8], math.Float64bits(norm))
			copy(rec[8:], raw)
			if len(samples[t]) < cfg.K {
				samples[t] = append(samples[t], append([]float64(nil), point...))
			}
			return wtrs[t].Add(rec)
		})
		for _, wtr := range wtrs {
			if cerr := wtr.Close(); err == nil {
				err = cerr
			}
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("kmeans: initialization: %w", err)
	}
	var centroids [][]float64
	for _, threads := range centSamples {
		for _, samples := range threads {
			for _, s := range samples {
				if len(centroids) < cfg.K {
					centroids = append(centroids, s)
				}
			}
		}
	}
	if len(centroids) < cfg.K {
		return nil, fmt.Errorf("kmeans: only %d points for %d clusters", len(centroids), cfg.K)
	}
	model := &Model{InitTime: time.Since(start)}

	// --- Lloyd iterations.
	for iter := 0; iter < cfg.Iterations; iter++ {
		iterStart := time.Now()
		sums, counts, err := assignAndSum(e, normsSet, centroids, cfg)
		if err != nil {
			return nil, fmt.Errorf("kmeans: iteration %d: %w", iter, err)
		}
		for c := 0; c < cfg.K; c++ {
			if counts[c] == 0 {
				continue // empty cluster keeps its centroid
			}
			for j := 0; j < cfg.Dim; j++ {
				centroids[c][j] = sums[c][j] / float64(counts[c])
			}
		}
		model.IterTimes = append(model.IterTimes, time.Since(iterStart))
		model.Assignments = counts
	}
	model.Centroids = centroids
	return model, nil
}

// assignAndSum performs one iteration: centroids are broadcast (closure
// capture models the broadcast service for the co-located computation), and
// each node aggregates per-cluster coordinate sums through the hash
// service; the coordinator merges the per-node partials.
func assignAndSum(e *query.Executor, normsSet string, centroids [][]float64, cfg Config) ([][]float64, []int64, error) {
	// Precompute centroid norms for the MLlib-style fast distance:
	// ||x−c||² = ||x||² − 2x·c + ||c||².
	cNorm := make([]float64, len(centroids))
	for c, cen := range centroids {
		for _, v := range cen {
			cNorm[c] += v * v
		}
	}

	// Group by nearest centroid; the accumulator is the coordinate sums
	// followed by the point count. Records are [norm][coordinates]: the
	// points set declares no columns, so the scan gives it its schema.
	widths := make([]int, cfg.Dim+1)
	folds := make([]query.Fold, 0, cfg.Dim+1)
	for j := range widths {
		widths[j] = 8
		if j > 0 {
			folds = append(folds, query.Sum(j))
		}
	}
	schema := services.MakeSchema(make([]string, len(widths)), widths)
	agg := query.Agg{
		KeyFn: func(b *query.Batch, sel []int32, keys []uint64) {
			norm, coords := b.Col(0), make([][]byte, cfg.Dim)
			for j := range coords {
				coords[j] = b.Col(1 + j)
			}
			for k, i := range sel {
				best, bestDist := 0, math.Inf(1)
				for c, cen := range centroids {
					dot := 0.0
					for j, col := range coords {
						dot += f64(col[8*i:]) * cen[j]
					}
					if d := f64(norm[8*i:]) - 2*dot + cNorm[c]; d < bestDist {
						best, bestDist = c, d
					}
				}
				keys[k] = uint64(best)
			}
		},
		KeyWidth: 4,
		Folds:    append(folds, query.Count()),
	}

	merged, err := e.DistributedMerge(func(node int, w *cluster.Worker) (map[string][]byte, error) {
		set, err := e.Set(node, normsSet)
		if err != nil {
			return nil, err
		}
		return query.ScanSpec{Set: set, Threads: cfg.Threads, Schema: schema}.AggBatches(w.Pool(), normsSet+":sums", nil, agg)
	}, agg.Combine)
	if err != nil {
		return nil, nil, err
	}

	sums := make([][]float64, cfg.K)
	counts := make([]int64, cfg.K)
	for c := range sums {
		sums[c] = make([]float64, cfg.Dim)
	}
	for k, v := range merged {
		c := int(binary.LittleEndian.Uint32([]byte(k)))
		for j := 0; j < cfg.Dim; j++ {
			sums[c][j] = f64(v[8*j:])
		}
		counts[c] = int64(f64(v[8*cfg.Dim:]))
	}
	return sums, counts, nil
}

// Cleanup drops the transient norms set after a run.
func Cleanup(e *query.Executor, inputSet string) {
	e.DropEverywhere(normsSetName(inputSet))
}
