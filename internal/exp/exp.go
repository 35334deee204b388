// Package exp is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (§9) on the simulated substrate. Each
// experiment returns a Table whose rows mirror the series the paper plots;
// absolute numbers differ (MB-scale simulation vs the authors' AWS
// testbed), but the shapes — who wins, by what rough factor, and where the
// crossovers fall — are the reproduction target. Each table's notes quote
// the paper's numbers beside it, and `go run ./cmd/pangea-bench [-quick]`
// prints every table.
package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"pangea/internal/disk"
)

// Table is one experiment's printable result.
type Table struct {
	ID     string // e.g. "fig3"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Print renders the table.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// Options tunes experiment scale. Quick shrinks workloads to CI size
// (sub-second to a few seconds per experiment); the default sizes are used
// by `pangea-bench` and the committed bench output.
type Options struct {
	Quick bool
	// Dir is the scratch directory for simulated drives. Required.
	Dir string
}

// pick returns quick or full depending on the options.
func (o Options) pick(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

func (o Options) pick64(quick, full int64) int64 {
	if o.Quick {
		return quick
	}
	return full
}

// diskConfig is the calibrated drive model shared by Pangea and every
// baseline: same bandwidth, same seek charge, so I/O-bound comparisons are
// apples to apples.
func diskConfig() disk.Config {
	return disk.Config{ReadMBps: 150, WriteMBps: 120, SeekLatency: 150 * time.Microsecond}
}

// driveUtil is the share of wall × drives that the drive model says arr spent
// on its traffic since before: near 1, only moving fewer bytes can make the
// run faster; well below 1, more overlap can.
func driveUtil(arr *disk.Array, before disk.Stats, wall time.Duration) string {
	cfg, s := diskConfig(), arr.Stats()
	busy := float64(s.Reads-before.Reads+s.Writes-before.Writes)*cfg.SeekLatency.Seconds() +
		float64(s.BytesRead-before.BytesRead)/(cfg.ReadMBps*(1<<20)) +
		float64(s.BytesWritten-before.BytesWritten)/(cfg.WriteMBps*(1<<20))
	return fmt.Sprintf("%.2f", busy/(wall.Seconds()*float64(arr.Len())))
}

// ms renders a duration in milliseconds for table cells.
func ms(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }

// mb renders bytes in MiB.
func mb(n int64) string { return fmt.Sprintf("%.2f", float64(n)/(1<<20)) }

// RunFunc is one experiment.
type RunFunc func(Options) (*Table, error)

// Registry maps experiment ids to their runners, in the paper's order.
var Registry = []struct {
	ID  string
	Fn  RunFunc
	Doc string
}{
	{"fig3", Fig3, "k-means latency: Pangea paging policies vs Spark over HDFS/Alluxio/Ignite"},
	{"fig4", Fig4, "k-means memory usage per setup"},
	{"fig5", Fig5, "TPC-H latency: heterogeneous replicas vs runtime repartition"},
	{"fig6", Fig6, "recovery latency and colliding ratio vs cluster size"},
	{"fig7", Fig7, "sequential access, transient data: Pangea vs OS VM vs Alluxio"},
	{"fig8", Fig8, "sequential access, persistent data: Pangea vs OS FS vs HDFS"},
	{"fig9", Fig9, "paging policies for sequential access (write-through and write-back)"},
	{"fig10", Fig10, "paging policies for shuffle"},
	{"tab2", Tab2, "SLOC breakdown of the query processor"},
	{"tab3", Tab3, "shuffle write/read: simulated Spark shuffle vs Pangea"},
	{"tab4", Tab4, "key-value aggregation: Go map vs Pangea hashmap vs Redis-like"},
	{"s7c", S7Colliding, "colliding objects vs node count and the n/k estimate"},
	{"s7", S7Fairness, "multi-tenant fairness: per-set admission control vs an aggressive hot set"},
	{"s9", S9Prefetch, "async prefetching read path: cold sequential/looping scans vs drive count, read-ahead on/off"},
	{"s10", S10Columnar, "columnar page layout: selective scan-filter-agg, batch kernels vs row decode, warm and cold"},
	{"s11", S11ZoneMap, "zone-map page skipping: selective scans with maps on/off, warm and cold, 1 and 4 drives"},
	{"s12", S12Microindex, "microindex point lookups on a non-clustered key: index vs zone-map blooms vs unpruned, warm and cold"},
}

// Run executes one experiment by id.
func Run(id string, o Options) (*Table, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e.Fn(o)
		}
	}
	return nil, fmt.Errorf("exp: unknown experiment %q", id)
}
