package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// cell parses a numeric cell, failing on FAIL markers.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s row %d col %d = %q not numeric", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

// percent parses a cell like "12.5%".
func percent(t *testing.T, c string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(c, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q not a percentage", c)
	}
	return v
}

// rowsBy indexes a table's rows by their first column.
func rowsBy(tab *Table) map[string][]string {
	m := map[string][]string{}
	for _, row := range tab.Rows {
		m[row[0]] = row
	}
	return m
}

// runQuick runs experiment id at its quick size.
func runQuick(t *testing.T, id string) *Table {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment harness is slow; skipped in -short mode")
	}
	tab, err := Run(id, Options{Quick: true, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	return tab
}

// quickTables holds each table TestRegistryRunsEveryExperiment made until
// the experiment's shape test takes it, so one run serves both. Tests here
// are not parallel.
var quickTables = map[string]*Table{}

// quickTable returns the table the registry test left for id, or runs the
// experiment when there is none (a shape test run on its own).
func quickTable(t *testing.T, id string) *Table {
	t.Helper()
	if tab, ok := quickTables[id]; ok {
		delete(quickTables, id)
		return tab
	}
	return runQuick(t, id)
}

// TestRegistryRunsEveryExperiment runs each registered experiment once, at
// its quick size, and prints its table. The tests after it hold the same runs
// to the claim each experiment exists to show.
func TestRegistryRunsEveryExperiment(t *testing.T) {
	for _, e := range Registry {
		t.Run(e.ID, func(t *testing.T) {
			tab := runQuick(t, e.ID)
			quickTables[e.ID] = tab
			var buf bytes.Buffer
			tab.Print(&buf)
			if !strings.Contains(buf.String(), tab.ID) {
				t.Error("printed table missing its id")
			}
		})
	}
}

// TestFig3Shape: DBMIN-adaptive and DBMIN-1000 block beyond memory, Ignite
// crashes at x2 and x3, and data-aware beats Spark over HDFS at every scale
// both complete.
func TestFig3Shape(t *testing.T) {
	tab := quickTable(t, "fig3")
	byName := rowsBy(tab)
	for _, sys := range []string{"Pangea w/ DBMIN-adaptive", "Pangea w/ DBMIN-1000"} {
		row := byName[sys]
		if row == nil {
			t.Fatalf("missing row %q", sys)
		}
		if !strings.HasPrefix(row[3], "FAIL") {
			t.Errorf("%s at x3 = %q, want FAIL (DBMIN blocking)", sys, row[3])
		}
	}
	ig := byName["Spark w/ Ignite"]
	if !strings.HasPrefix(ig[2], "FAIL") || !strings.HasPrefix(ig[3], "FAIL") {
		t.Errorf("Ignite row = %v, want FAIL at x2/x3", ig)
	}
	da, hd := byName["Pangea w/ Data-aware"], byName["Spark w/ HDFS"]
	for col := 1; col <= 3; col++ {
		a, err1 := strconv.ParseFloat(da[col], 64)
		b, err2 := strconv.ParseFloat(hd[col], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		if a >= b {
			t.Errorf("x%d: data-aware %.1fms not faster than Spark/HDFS %.1fms", col, a, b)
		}
	}
}

// TestFig5ReplicasBeatRepartitionOnJoins: the co-partitioned join queries
// speed up with replicas.
func TestFig5ReplicasBeatRepartitionOnJoins(t *testing.T) {
	byQ := rowsBy(quickTable(t, "fig5"))
	for _, q := range []string{"Q04", "Q12", "Q14", "Q17"} {
		row := byQ[q]
		a, _ := strconv.ParseFloat(row[1], 64)
		b, _ := strconv.ParseFloat(row[2], 64)
		if a >= b {
			t.Errorf("%s: replicas %.1fms not faster than repartition %.1fms", q, a, b)
		}
	}
}

// TestFig6CollidingRatioDeclines: the colliding ratio never rises with the
// cluster size.
func TestFig6CollidingRatioDeclines(t *testing.T) {
	tab := quickTable(t, "fig6")
	prev := 101.0
	for _, row := range tab.Rows {
		v := percent(t, row[3])
		if v > prev {
			t.Errorf("colliding ratio rose: %v", tab.Rows)
		}
		prev = v
	}
}

// TestFig7PangeaBeatsOSVMBeyondMemory: beyond memory Pangea reads faster than
// OS VM, and Alluxio fails.
func TestFig7PangeaBeatsOSVMBeyondMemory(t *testing.T) {
	tab := quickTable(t, "fig7")
	last := len(tab.Rows) - 1
	pangeaRead := cell(t, tab, last, 2)
	osvmRead := cell(t, tab, last, 6)
	if pangeaRead >= osvmRead {
		t.Errorf("beyond memory: pangea read %.1fms not faster than OS VM %.1fms", pangeaRead, osvmRead)
	}
	if tab.Rows[last][7] != "FAIL" {
		t.Errorf("alluxio at max size = %q, want FAIL", tab.Rows[last][7])
	}
}

// TestFig8PangeaReadsBeatOSFSAndHDFS: beyond memory, the OS file system's
// read and HDFS's on one drive each take at least 1.5× Pangea's write-through
// read on one drive — the low end of the paper's 1.5–3.5× HDFS band. The
// ratio is asserted, not the wall times.
func TestFig8PangeaReadsBeatOSFSAndHDFS(t *testing.T) {
	tab := quickTable(t, "fig8")
	col := map[string]int{}
	for i, h := range tab.Header {
		col[h] = i
	}
	last := len(tab.Rows) - 1
	pangea := cell(t, tab, last, col["pangea-wt-1d read"])
	for _, h := range []string{"osfs read", "hdfs-1d read"} {
		if got := cell(t, tab, last, col[h]); got < 1.5*pangea {
			t.Errorf("at %s objects: %s %.1fms is under 1.5× pangea-wt-1d read %.1fms", tab.Rows[last][0], h, got, pangea)
		}
	}
}

// TestFig9LRUReadSlowerThanMRUFamily: on loop-sequential reads data-aware
// beats LRU. Columns: 0 durability, 1 objects, then (write, read) per policy
// in order data-aware, DBMIN-tuned, MRU, LRU. No tolerance: the quick shape
// gives the pool 32 frames of the set, so data-aware keeps about a third of it
// across loops and LRU none — a margin of tens of percent, not the ≈3 % four
// 512 KiB frames left.
func TestFig9LRUReadSlowerThanMRUFamily(t *testing.T) {
	tab := quickTable(t, "fig9")
	last := len(tab.Rows) - 1
	daRead := cell(t, tab, last, 3)
	lruRead := cell(t, tab, last, 9)
	if daRead >= lruRead {
		t.Errorf("data-aware read %.1fms not faster than LRU %.1fms on loop-sequential", daRead, lruRead)
	}
}

// TestTab2CountsRealFiles: the SLOC count is a real four-digit total.
func TestTab2CountsRealFiles(t *testing.T) {
	tab := quickTable(t, "tab2")
	total := tab.Rows[len(tab.Rows)-1]
	if total[0] != "Total" {
		t.Fatalf("last row = %v, want Total", total)
	}
	n, err := strconv.Atoi(total[1])
	if err != nil || n < 500 {
		t.Errorf("total SLOC = %v, want a four-digit real count", total[1])
	}
}

// TestTab3SparkNeedsMoreFiles: the Pangea shuffle reads faster than the
// Spark-style one.
func TestTab3SparkNeedsMoreFiles(t *testing.T) {
	tab := quickTable(t, "tab3")
	last := len(tab.Rows) - 1
	sparkRead := cell(t, tab, last, 2)
	pangeaRead := cell(t, tab, last, 4)
	if pangeaRead >= sparkRead {
		t.Errorf("pangea shuffle read %.1fms not faster than spark-style %.1fms", pangeaRead, sparkRead)
	}
}

// TestS7RatioDeclines: the colliding ratio never rises with more nodes.
func TestS7RatioDeclines(t *testing.T) {
	tab := quickTable(t, "s7c")
	prev := 101.0
	for _, row := range tab.Rows {
		v := percent(t, row[2])
		if v > prev {
			t.Errorf("ratio rose with more nodes: %v", tab.Rows)
		}
		prev = v
	}
}

// TestS7FairnessProtectsPolite: with a fair-share weight or a hard quota on
// the aggressor, the well-behaved tenant keeps its residency share (within
// 10% of its provisioned working set) and suffers almost no forced reloads,
// while the unprotected baseline shows real starvation.
func TestS7FairnessProtectsPolite(t *testing.T) {
	tab := quickTable(t, "s7")
	byName := rowsBy(tab)
	// The polite working set is 3/8 = 37.5% of the pool; within 10% means
	// its minimum share never drops below ~27.5%.
	for _, name := range []string{"weights 1:1", "quota on aggressor"} {
		row := byName[name]
		if row == nil {
			t.Fatalf("no %q row in %v", name, tab.Rows)
		}
		if got := percent(t, row[2]); got < 27.5 {
			t.Errorf("%s: min polite share = %v%%, want >= 27.5%% (held within 10%% of its 37.5%% working set)", name, got)
		}
		loads, err := strconv.Atoi(row[6])
		if err != nil || loads > 3 {
			t.Errorf("%s: polite forced reloads = %v, want ~0", name, row[6])
		}
	}
	baseline := byName["none"]
	if baseline == nil {
		t.Fatalf("no baseline row in %v", tab.Rows)
	}
	if loads, _ := strconv.Atoi(baseline[6]); loads == 0 {
		t.Error("baseline shows no polite reloads: the aggressor failed to starve anyone, so the experiment demonstrates nothing")
	}
}

// TestS9ReadAheadCoversColdScan: a cold sequential scan at 2 drives with
// read-ahead on keeps reading ahead after the pool fills. The scan starts
// with every frame free and demand-loads its first page, so read-ahead alone
// can issue at most one read fewer than the pool has frames. Any more needs
// the evictor to free frames for refused hints: the starved-prefetch budget
// (core's noteStarved). With it deleted the scan issued 7 prefetches and
// demand-loaded 17 of 24 pages through a 10-frame pool on every run; with it,
// 10 to 23 issued and 14 to 1 loaded over 600 runs of the config.
// The counters are asserted, not the wall time.
func TestS9ReadAheadCoversColdScan(t *testing.T) {
	tab := quickTable(t, "s9")
	_, frames := s9Size(Options{Quick: true})
	for _, row := range tab.Rows {
		if row[0] != "cold-seq" || row[1] != "2" || row[2] != "on" {
			continue
		}
		var reads float64
		var pages int64
		if _, err := fmt.Sscanf(row[11], "%f of %d", &reads, &pages); err != nil {
			t.Fatalf("reads/pass cell %q: %v", row[11], err)
		}
		issued, err1 := strconv.ParseInt(row[7], 10, 64)
		loads, err2 := strconv.ParseInt(row[10], 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("issued/loads cells %q/%q not numeric", row[7], row[10])
		}
		if issued < frames || loads > pages-frames {
			t.Errorf("cold-seq at 2 drives: %d prefetches issued and %d demand loads for %d pages through %d frames, want at least %d issued and at most %d loaded",
				issued, loads, pages, frames, frames, pages-frames)
		}
		return
	}
	t.Fatalf("no cold-seq row at 2 drives with prefetch on: %v", tab.Rows)
}

// TestS10ColumnarBeatsRowWhenSelective: the warm sweep's batch pipeline beats
// the row decode at the selective end — that is the layout's reason to exist.
// The margin is asserted loosely (quick sizes on shared CI runners are
// noisy). What is compared is the speedup column, the ratio of the two raw
// durations: the "scan ms" cells are both 0.1 at quick sizes, printed in
// steps of 0.1, and comparing those failed on the tie one full run in ten.
func TestS10ColumnarBeatsRowWhenSelective(t *testing.T) {
	tab := quickTable(t, "s10")
	type key struct{ mode, sel, layout, drives string }
	byKey := map[key][]string{}
	for _, row := range tab.Rows {
		byKey[key{row[0], row[1], row[2], row[3]}] = row
	}
	for _, sel := range []string{"1", "10"} {
		row, col := byKey[key{"warm", sel, "row", "1"}], byKey[key{"warm", sel, "columnar", "1"}]
		if row == nil || col == nil {
			t.Fatalf("missing warm rows at sel=%s%%: %v", sel, tab.Rows)
		}
		speedup, err := strconv.ParseFloat(strings.TrimSuffix(col[6], "x"), 64)
		if err != nil {
			t.Fatalf("warm sel=%s%%: speedup %q not numeric", sel, col[6])
		}
		if !(speedup > 1) { // a tie is not a win, and neither is NaN
			t.Errorf("warm sel=%s%%: columnar (%sms) is %s the row layout (%sms), not faster", sel, col[4], col[6], row[4])
		}
	}
	for _, d := range []string{"1", "4"} {
		for _, l := range []string{"row", "columnar"} {
			if _, ok := byKey[key{"cold", "10", l, d}]; !ok {
				t.Errorf("missing cold row layout=%s drives=%s", l, d)
			}
		}
	}
}

// TestS11ZoneMapSkipsPages: cold selective scans with maps on do measurably
// fewer drive page reads than the identical scan with pruning disabled, and
// the skip counter shows real pruning — that is the zone map's reason to
// exist. At 10% (the loosest cutoff in the sweep) the data is clustered, so
// pruning must still drop most pages.
func TestS11ZoneMapSkipsPages(t *testing.T) {
	tab := quickTable(t, "s11")
	type key struct{ mode, sel, maps, drives string }
	reads := map[key]float64{}
	skips := map[key]float64{}
	for i, row := range tab.Rows {
		k := key{row[0], row[1], row[2], row[3]}
		reads[k] = cell(t, tab, i, 5)
		skips[k] = cell(t, tab, i, 6)
	}
	for _, drives := range []string{"1", "4"} {
		for _, sel := range []string{"1", "10", "100"} {
			on := key{"cold", sel, "on", drives}
			off := key{"cold", sel, "off", drives}
			if _, ok := reads[on]; !ok {
				t.Fatalf("missing cold maps=on row sel=%s drives=%s: %v", sel, drives, tab.Rows)
			}
			if skips[on] == 0 {
				t.Errorf("cold sel=%s drives=%s: zone map skipped no pages over clustered data", sel, drives)
			}
			if skips[off] != 0 {
				t.Errorf("cold sel=%s drives=%s: HintNoPrune scan skipped %v pages, want 0", sel, drives, skips[off])
			}
			if reads[on] >= reads[off] {
				t.Errorf("cold sel=%s drives=%s: maps on read %v pages, off read %v — pruning saved no I/O",
					sel, drives, reads[on], reads[off])
			}
		}
	}
	// The most selective cutoff must read only a sliver of the pages.
	if r, full := reads[key{"cold", "1", "on", "1"}], reads[key{"cold", "1", "off", "1"}]; r > full/4 {
		t.Errorf("cold sel=1 permil: maps on read %v of %v pages, want a small fraction", r, full)
	}
}

// TestTab2FilesExist runs in -short: every file Tab2 counts must exist, so a
// deletion cannot silently break `pangea-bench -exp tab2`.
func TestTab2FilesExist(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tab2Components {
		for _, f := range c.files {
			if _, err := os.Stat(filepath.Join(root, f)); err != nil {
				t.Errorf("tab2 component %q: %v", c.name, err)
			}
		}
	}
}

// TestTab2CountsEveryQueryFile runs in -short: every non-test Go file of
// the query package is counted by some Tab2 component, so a new operator file
// cannot drop out of the table.
func TestTab2CountsEveryQueryFile(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	counted := map[string]bool{}
	for _, c := range tab2Components {
		for _, f := range c.files {
			counted[f] = true
		}
	}
	files, err := filepath.Glob(filepath.Join(root, "internal/query/*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		rel := "internal/query/" + filepath.Base(f)
		if !strings.HasSuffix(rel, "_test.go") && !counted[rel] {
			t.Errorf("%s is not counted by any tab2 component", rel)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("unknown experiment must error")
	}
}
