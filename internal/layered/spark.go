package layered

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"pangea/internal/disk"
)

// objectFiles is a store of named files of serialized objects: what the
// Spark-like engine needs from the layer below it.
type objectFiles interface {
	Create(name string)
	WriteObject(name string, obj []byte) error
	Scan(name string, fn func(obj []byte) error) error
	// Used reports the layer's own RAM footprint (worker memory, off-heap
	// region, or OS page cache) for the Fig 4 accounting.
	Used() int64
}

// Storage is the layer below the Spark-like engine: a block-oriented store
// holding serialized objects, one file a block. It runs over the HDFS,
// Alluxio and Ignite baselines, so the same engine runs over each — the
// three Spark configurations of Fig 3.
type Storage struct {
	name  string
	files objectFiles
	nblk  map[string]int
}

func newStorage(name string, files objectFiles) *Storage {
	return &Storage{name: name, files: files, nblk: make(map[string]int)}
}

// NewHDFSStorage runs the Spark engine over the HDFS baseline.
func NewHDFSStorage(arr *disk.Array, cacheBytes int64) *Storage {
	return newStorage("HDFS", hdfsObjects{NewHDFS(arr, cacheBytes)})
}

// NewAlluxioStorage runs the Spark engine over the Alluxio baseline.
func NewAlluxioStorage(memBytes int64) *Storage {
	return newStorage("Alluxio", NewAlluxio(memBytes))
}

// NewIgniteStorage runs the Spark engine over the Ignite baseline.
func NewIgniteStorage(offHeapBytes int64) *Storage {
	return newStorage("Ignite", NewIgnite(offHeapBytes))
}

func blockFile(name string, block int) string { return fmt.Sprintf("%s#%d", name, block) }

// Name names the storage layer.
func (s *Storage) Name() string { return s.name }

// Create starts an empty dataset.
func (s *Storage) Create(name string) { s.nblk[name] = 0 }

// NumBlocks reports how many blocks the dataset has.
func (s *Storage) NumBlocks(name string) int { return s.nblk[name] }

// Append serializes one object into a block of the dataset.
func (s *Storage) Append(name string, block int, obj []byte) error {
	if block >= s.nblk[name] {
		s.nblk[name] = block + 1
		s.files.Create(blockFile(name, block))
	}
	return s.files.WriteObject(blockFile(name, block), obj)
}

// ScanBlock deserializes every object of one block to fn.
func (s *Storage) ScanBlock(name string, block int, fn func(obj []byte) error) error {
	return s.files.Scan(blockFile(name, block), fn)
}

// MemoryUsed reports the layer's own RAM footprint.
func (s *Storage) MemoryUsed() int64 { return s.files.Used() }

// hdfsObjects frames objects into HDFS files as u32 length | bytes.
type hdfsObjects struct{ h *HDFS }

func (o hdfsObjects) Create(name string) { o.h.Create(name) }

func (o hdfsObjects) WriteObject(name string, obj []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(obj)))
	if err := o.h.Append(name, hdr[:]); err != nil {
		return err
	}
	return o.h.Append(name, obj)
}

func (o hdfsObjects) Scan(name string, fn func(obj []byte) error) error {
	var pending []byte
	return o.h.Scan(name, func(chunk []byte) error {
		pending = append(pending, chunk...)
		for len(pending) >= 4 {
			n := binary.LittleEndian.Uint32(pending[0:4])
			if len(pending) < 4+int(n) {
				break
			}
			if err := fn(pending[4 : 4+n]); err != nil {
				return err
			}
			pending = pending[4+n:]
		}
		return nil
	})
}

// Used reports the OS page cache under the data nodes.
func (o hdfsObjects) Used() int64 {
	var n int64
	for _, fs := range o.h.fss {
		n += fs.CachedBytes()
	}
	return n
}

// --- the Spark-like engine -------------------------------------------------------

// rddCache is the Spark storage pool: deserialized blocks under LRU, with
// whole-block eviction (evicted blocks are recomputed from the storage
// layer, as Spark lineage does).
type rddCache struct {
	capacity int64
	used     int64
	lru      *list.List // of *rddBlock, front = least recently used
	blocks   map[string]*list.Element
}

type rddBlock struct {
	id   string
	recs [][]byte
	size int64
}

func newRDDCache(capacity int64) *rddCache {
	return &rddCache{capacity: capacity, lru: list.New(), blocks: make(map[string]*list.Element)}
}

func (c *rddCache) get(id string) ([][]byte, bool) {
	e, ok := c.blocks[id]
	if !ok {
		return nil, false
	}
	c.lru.MoveToBack(e)
	return e.Value.(*rddBlock).recs, true
}

func (c *rddCache) put(id string, recs [][]byte, size int64) {
	if size > c.capacity {
		return // block cannot be cached at all
	}
	for c.used+size > c.capacity && c.lru.Len() > 0 {
		victim := c.lru.Remove(c.lru.Front()).(*rddBlock)
		c.used -= victim.size
		delete(c.blocks, victim.id)
	}
	c.blocks[id] = c.lru.PushBack(&rddBlock{id, recs, size})
	c.used += size
}

// SparkConfig parameterises the Spark-like k-means run.
type SparkConfig struct {
	K, Dim, Iterations int
	// StoragePool is the RDD cache budget; ExecPool the execution memory.
	StoragePool, ExecPool int64
}

// SparkModel reports the run's timings and memory for Figs 3 and 4.
type SparkModel struct {
	Centroids   [][]float64
	InitTime    time.Duration
	IterTimes   []time.Duration
	PeakMemory  int64 // Spark pools + storage layer, max over the run
	CacheMisses int64 // blocks recomputed from the storage layer
}

// TotalTime sums initialization and iterations.
func (m *SparkModel) TotalTime() time.Duration {
	t := m.InitTime
	for _, it := range m.IterTimes {
		t += it
	}
	return t
}

// LoadPointsToStorage writes encoded points into the storage layer in
// blocks of objsPerBlock.
func LoadPointsToStorage(st *Storage, name string, pts [][]byte, objsPerBlock int) error {
	st.Create(name)
	for i, p := range pts {
		if err := st.Append(name, i/objsPerBlock, p); err != nil {
			return err
		}
	}
	return nil
}

// SparkKMeans runs the MLlib-style computation over the layered stack: a
// wave of per-block tasks per stage, deserializing blocks out of the
// storage layer into the RDD cache, recomputing evicted blocks, and keeping
// execution state in the separate execution pool. Its failures are the
// baselines' failures: Alluxio refuses datasets beyond its memory and
// Ignite crashes — the gaps in Fig 3.
func SparkKMeans(st *Storage, name string, cfg SparkConfig) (*SparkModel, error) {
	model := &SparkModel{}
	cache := newRDDCache(cfg.StoragePool)
	recSize := int64(8 * (cfg.Dim + 1))
	trackPeak := func(exec int64) {
		if m := cache.used + exec + st.MemoryUsed(); m > model.PeakMemory {
			model.PeakMemory = m
		}
	}

	// normsBlock deserializes one block from storage and computes the
	// points-with-norms rows (the lineage recomputation path).
	normsBlock := func(block int) ([][]byte, int64, error) {
		var recs [][]byte
		var size int64
		err := st.ScanBlock(name, block, func(obj []byte) error {
			out := make([]byte, recSize)
			var norm float64
			for j := 0; j < cfg.Dim; j++ {
				v := math.Float64frombits(binary.LittleEndian.Uint64(obj[8*j:]))
				norm += v * v
			}
			binary.LittleEndian.PutUint64(out[0:8], math.Float64bits(norm))
			copy(out[8:], obj) // JVM-side deserialized copy
			recs = append(recs, out)
			size += recSize
			return nil
		})
		return recs, size, err
	}

	// --- Initialization stage: one task per block.
	start := time.Now()
	nblocks := st.NumBlocks(name)
	var centroids [][]float64
	for b := 0; b < nblocks; b++ {
		recs, size, err := normsBlock(b)
		if err != nil {
			return nil, err
		}
		cache.put(fmt.Sprintf("%s-norms-%d", name, b), recs, size)
		for _, rec := range recs {
			if len(centroids) < cfg.K {
				c := make([]float64, cfg.Dim)
				for j := range c {
					c[j] = math.Float64frombits(binary.LittleEndian.Uint64(rec[8+8*j:]))
				}
				centroids = append(centroids, c)
			}
		}
		trackPeak(0)
	}
	if len(centroids) < cfg.K {
		return nil, fmt.Errorf("layered: only %d points for %d clusters", len(centroids), cfg.K)
	}
	model.InitTime = time.Since(start)

	// --- Iterations: wave of per-block tasks, partial sums in the
	// execution pool, merged at the driver.
	for iter := 0; iter < cfg.Iterations; iter++ {
		iterStart := time.Now()
		cNorm := make([]float64, cfg.K)
		for c, cen := range centroids {
			for _, v := range cen {
				cNorm[c] += v * v
			}
		}
		sums := make([][]float64, cfg.K)
		counts := make([]int64, cfg.K)
		for c := range sums {
			sums[c] = make([]float64, cfg.Dim)
		}
		execBytes := int64(cfg.K) * recSize
		for b := 0; b < nblocks; b++ {
			id := fmt.Sprintf("%s-norms-%d", name, b)
			recs, ok := cache.get(id)
			if !ok {
				var size int64
				var err error
				recs, size, err = normsBlock(b) // recompute from the layer below
				if err != nil {
					return nil, err
				}
				cache.put(id, recs, size)
				model.CacheMisses++
			}
			for _, rec := range recs {
				norm := math.Float64frombits(binary.LittleEndian.Uint64(rec[0:8]))
				best, bestDist := 0, math.Inf(1)
				for c, cen := range centroids {
					dot := 0.0
					for j := 0; j < cfg.Dim; j++ {
						x := math.Float64frombits(binary.LittleEndian.Uint64(rec[8+8*j:]))
						dot += x * cen[j]
					}
					if d := norm - 2*dot + cNorm[c]; d < bestDist {
						best, bestDist = c, d
					}
				}
				for j := 0; j < cfg.Dim; j++ {
					sums[best][j] += math.Float64frombits(binary.LittleEndian.Uint64(rec[8+8*j:]))
				}
				counts[best]++
			}
			trackPeak(execBytes)
		}
		for c := 0; c < cfg.K; c++ {
			if counts[c] == 0 {
				continue
			}
			for j := 0; j < cfg.Dim; j++ {
				centroids[c][j] = sums[c][j] / float64(counts[c])
			}
		}
		model.IterTimes = append(model.IterTimes, time.Since(iterStart))
	}
	model.Centroids = centroids
	return model, nil
}
