package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func quickOpts(t *testing.T) Options {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment harness is slow; skipped in -short mode")
	}
	return Options{Quick: true, Dir: t.TempDir()}
}

// cell parses a numeric cell, failing on FAIL markers.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s row %d col %d = %q not numeric", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func TestRegistryRunsEveryExperiment(t *testing.T) {
	for _, e := range Registry {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Fn(quickOpts(t))
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			var buf bytes.Buffer
			tab.Print(&buf)
			if !strings.Contains(buf.String(), tab.ID) {
				t.Error("printed table missing its id")
			}
		})
	}
}

func TestFig3Shape(t *testing.T) {
	tab, err := Fig3(quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]string{}
	for _, row := range tab.Rows {
		byName[row[0]] = row
	}
	// DBMIN-adaptive and DBMIN-1000 must block at sizes beyond memory.
	for _, sys := range []string{"Pangea w/ DBMIN-adaptive", "Pangea w/ DBMIN-1000"} {
		row := byName[sys]
		if row == nil {
			t.Fatalf("missing row %q", sys)
		}
		if !strings.HasPrefix(row[3], "FAIL") {
			t.Errorf("%s at x3 = %q, want FAIL (DBMIN blocking)", sys, row[3])
		}
	}
	// Ignite must crash at x2 and x3.
	ig := byName["Spark w/ Ignite"]
	if !strings.HasPrefix(ig[2], "FAIL") || !strings.HasPrefix(ig[3], "FAIL") {
		t.Errorf("Ignite row = %v, want FAIL at x2/x3", ig)
	}
	// Data-aware must beat Spark w/ HDFS at every scale it completes.
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

func TestFig5ReplicasBeatRepartitionOnJoins(t *testing.T) {
	tab, err := Fig5(quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	byQ := map[string][]string{}
	for _, row := range tab.Rows {
		byQ[row[0]] = row
	}
	// The co-partitioned join queries must speed up; Q17 most of all.
	for _, q := range []string{"Q04", "Q12", "Q14", "Q17"} {
		row := byQ[q]
		a, _ := strconv.ParseFloat(row[1], 64)
		b, _ := strconv.ParseFloat(row[2], 64)
		if a >= b {
			t.Errorf("%s: replicas %.1fms not faster than repartition %.1fms", q, a, b)
		}
	}
}

func TestFig6CollidingRatioDeclines(t *testing.T) {
	tab, err := Fig6(quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = 101
	for i := range tab.Rows {
		r := strings.TrimSuffix(tab.Rows[i][3], "%")
		v, err := strconv.ParseFloat(r, 64)
		if err != nil {
			t.Fatal(err)
		}
		if v > prev {
			t.Errorf("colliding ratio rose: %v", tab.Rows)
		}
		prev = v
	}
}

func TestFig7PangeaBeatsOSVMBeyondMemory(t *testing.T) {
	tab, err := Fig7(quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	last := len(tab.Rows) - 1
	pangeaRead := cell(t, tab, last, 2)
	osvmRead := cell(t, tab, last, 6)
	if pangeaRead >= osvmRead {
		t.Errorf("beyond memory: pangea read %.1fms not faster than OS VM %.1fms", pangeaRead, osvmRead)
	}
	// Alluxio must fail at the largest size (cannot exceed memory).
	if tab.Rows[last][7] != "FAIL" {
		t.Errorf("alluxio at max size = %q, want FAIL", tab.Rows[last][7])
	}
}

func TestFig9LRUReadSlowerThanMRUFamily(t *testing.T) {
	tab, err := Fig9(quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	// Columns: 0 durability, 1 objects, then (write, read) per policy in
	// order data-aware, DBMIN-tuned, MRU, LRU.
	last := len(tab.Rows) - 1
	daRead := cell(t, tab, last, 3)
	lruRead := cell(t, tab, last, 9)
	// No tolerance: the quick shape gives the pool 32 frames of the set, so
	// data-aware keeps about a third of it across loops and LRU none — a
	// margin of tens of percent, not the ≈3 % four 512 KiB frames left.
	if daRead >= lruRead {
		t.Errorf("data-aware read %.1fms not faster than LRU %.1fms on loop-sequential", daRead, lruRead)
	}
}

func TestTab3SparkNeedsMoreFiles(t *testing.T) {
	tab, err := Tab3(quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	last := len(tab.Rows) - 1
	sparkRead := cell(t, tab, last, 2)
	pangeaRead := cell(t, tab, last, 4)
	if pangeaRead >= sparkRead {
		t.Errorf("pangea shuffle read %.1fms not faster than spark-style %.1fms", pangeaRead, sparkRead)
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

func TestTab2CountsRealFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow; skipped in -short mode")
	}
	tab, err := Tab2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := tab.Rows[len(tab.Rows)-1]
	if total[0] != "Total" {
		t.Fatalf("last row = %v, want Total", total)
	}
	n, err := strconv.Atoi(total[1])
	if err != nil || n < 500 {
		t.Errorf("total SLOC = %v, want a four-digit real count", total[1])
	}
}

func TestS7RatioDeclines(t *testing.T) {
	tab, err := S7Colliding(quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = 101
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if v > prev {
			t.Errorf("ratio rose with more nodes: %v", tab.Rows)
		}
		prev = v
	}
}

// TestS7FairnessProtectsPolite: with a fair-share weight or a hard quota
// on the aggressor, the well-behaved tenant must retain its residency
// share (within 10% of its provisioned working set) and suffer almost no
// forced reloads, while the unprotected baseline shows real starvation.
func TestS7FairnessProtectsPolite(t *testing.T) {
	tab, err := S7Fairness(quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	share := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			t.Fatalf("share cell %q not numeric", cell)
		}
		return v
	}
	byName := map[string][]string{}
	for _, row := range tab.Rows {
		byName[row[0]] = row
	}
	// The polite working set is 3/8 = 37.5% of the pool; within 10% means
	// its minimum share never drops below ~27.5%.
	for _, name := range []string{"weights 1:1", "quota on aggressor"} {
		row := byName[name]
		if row == nil {
			t.Fatalf("no %q row in %v", name, tab.Rows)
		}
		if got := share(row[2]); got < 27.5 {
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

// TestS10ColumnarBeatsRowWhenSelective: the warm sweep's batch pipeline
// must beat the row decode at the selective end — that is the layout's
// reason to exist. The margin is asserted loosely (quick sizes on shared CI
// runners are noisy); the committed full-size bench output records the
// real factor. What is compared is the speedup column, the ratio of the two
// raw durations: the "scan ms" cells are both 0.1 at quick sizes, printed in
// steps of 0.1, and comparing those failed on the tie one full run in ten.
func TestS10ColumnarBeatsRowWhenSelective(t *testing.T) {
	tab, err := S10Columnar(quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
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
	// Cold rows exist for both drive counts and both layouts.
	for _, d := range []string{"1", "4"} {
		for _, l := range []string{"row", "columnar"} {
			if _, ok := byKey[key{"cold", "10", l, d}]; !ok {
				t.Errorf("missing cold row layout=%s drives=%s", l, d)
			}
		}
	}
}

// TestS11ZoneMapSkipsPages: the cold selective scans with maps on must do
// measurably fewer drive page reads than the identical scan with pruning
// disabled, and the skip counter must show real pruning — that is the zone
// map's reason to exist. At 10% (the loosest cutoff in the sweep) the data
// is clustered, so pruning must still drop most pages.
func TestS11ZoneMapSkipsPages(t *testing.T) {
	tab, err := S11ZoneMap(quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
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

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("unknown experiment must error")
	}
}
