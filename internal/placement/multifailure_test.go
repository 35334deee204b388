package placement

import (
	"math/bits"
	"testing"
)

func TestExtraPlacementReachesRPlusOneNodes(t *testing.T) {
	const k = 6
	for r := 1; r < 4; r++ {
		for mask := uint64(1); mask < 1<<k; mask++ {
			for home := 0; home < k; home++ {
				extra := extraPlacement(mask, home, k, r)
				have := bits.OnesCount64(mask)
				want := r + 1 - have
				if want < 0 {
					want = 0
				}
				if have+want > k {
					continue // cannot spread wider than the cluster
				}
				if len(extra) != want {
					t.Fatalf("mask %b r=%d: extra=%v want %d nodes", mask, r, extra, want)
				}
				seen := mask
				for _, e := range extra {
					if seen&(1<<uint(e)) != 0 {
						t.Fatalf("mask %b: extra copy on an occupied node %d", mask, e)
					}
					seen |= 1 << uint(e)
				}
			}
		}
	}
	// The rule walks cyclically from the node after home: a colliding
	// object's one extra copy at r = 1 goes to (home+1) % k — where the
	// plain group build has always put it — and over uniform homes the
	// extras of r = 2 load every node alike, not nodes 0 and 1.
	load := make([]int, k)
	for home := 0; home < k; home++ {
		if extra := extraPlacement(1<<uint(home), home, k, 1); len(extra) != 1 || extra[0] != (home+1)%k {
			t.Errorf("r=1 home %d: extra=%v, want [%d]", home, extra, (home+1)%k)
		}
		for _, e := range extraPlacement(1<<uint(home), home, k, 2) {
			load[e]++
		}
	}
	for node, n := range load {
		if n != 2 {
			t.Errorf("r=2: node %d takes %d of the 12 extra copies, want 2 (load %v)", node, n, load)
		}
	}
}

func TestBuildSafeGroupValidation(t *testing.T) {
	_, addrs, cl := startCluster(t, 3)
	if _, err := BuildGroup(cl, addrs, "x", nil, rowSpec, 0); err == nil {
		t.Error("r=0 must be rejected")
	}
	if _, err := BuildGroup(cl, addrs, "x", nil, rowSpec, 3); err == nil {
		t.Error("r=k must be rejected")
	}
	// A node mask has 64 bits; a wider cluster would read every object as
	// colliding.
	if _, err := BuildGroup(cl, make([]string, maxNodes+1), "x", nil, rowSpec, 1); err == nil {
		t.Errorf("%d workers must be rejected", maxNodes+1)
	}
	for _, addr := range addrs {
		if _, err := cl.SetStats(addr, "x:safety-r1"); err == nil {
			t.Error("a rejected build created its safety set")
		}
	}
}

// TestRecoverTwoNodeFailure: an r=2 safe group survives two concurrent
// node failures with every member restored to the exact multiset.
func TestRecoverTwoNodeFailure(t *testing.T) {
	workers, addrs, cl := startCluster(t, 5)
	if err := cl.CreateSet("li", 64<<10, 0); err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(1500)
	if err := DispatchRandom(cl, addrs, "li", recs); err != nil {
		t.Fatal(err)
	}
	sg, err := BuildGroup(cl, addrs, "li", twoPartitioners(20), rowSpec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sg.ExtraCopies == 0 {
		t.Fatal("expected some under-spread objects needing extra copies")
	}

	failed := []int{1, 3}
	for _, f := range failed {
		if err := workers[f].Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Recover(cl, addrs, sg, failed); err != nil {
		t.Fatal(err)
	}

	var survivors []string
	for i, a := range addrs {
		if i != 1 && i != 3 {
			survivors = append(survivors, a)
		}
	}
	for _, m := range sg.Members {
		counts := make(map[string]int, len(recs))
		for _, rec := range recs {
			counts[string(rec)]++
		}
		for _, addr := range survivors {
			if err := cl.FetchSet(addr, m.Set, func(rec []byte) error {
				counts[string(rec)]--
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		for key, c := range counts {
			if c != 0 {
				t.Fatalf("member %s: record %x count off by %d after 2-node recovery", m.Set, key[:8], c)
			}
		}
	}
}

// TestRecoverMultiRejectsTooManyFailures: exceeding r is an error, not
// silent data loss.
func TestRecoverMultiRejectsTooManyFailures(t *testing.T) {
	_, addrs, cl := startCluster(t, 4)
	if err := cl.CreateSet("s", 64<<10, 0); err != nil {
		t.Fatal(err)
	}
	if err := DispatchRandom(cl, addrs, "s", mkRecords(100)); err != nil {
		t.Fatal(err)
	}
	sg, err := BuildGroup(cl, addrs, "s", twoPartitioners(8), rowSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(cl, addrs, sg, []int{0, 1}); err == nil {
		t.Error("recovering 2 failures with r=1 must be rejected")
	}
	// Indices outside the cluster used to panic, and a repeated index
	// counted twice against r.
	for _, failed := range [][]int{{4}, {-1}, {2, 2}} {
		if _, err := Recover(cl, addrs, sg, failed); err == nil {
			t.Errorf("failed nodes %v on 4 workers must be rejected", failed)
		}
	}
	sg.R = 2
	if _, err := Recover(cl, addrs, sg, []int{2, 2}); err == nil {
		t.Error("a repeated failed node must be rejected even within r")
	}
}

// TestSafeGroupSingleFailureMatchesPlainRecovery: a group built for r=1
// restores a single failure whole.
func TestSafeGroupSingleFailureMatchesPlainRecovery(t *testing.T) {
	workers, addrs, cl := startCluster(t, 3)
	if err := cl.CreateSet("s", 64<<10, 0); err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(600)
	if err := DispatchRandom(cl, addrs, "s", recs); err != nil {
		t.Fatal(err)
	}
	sg, err := BuildGroup(cl, addrs, "s", twoPartitioners(9), rowSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = workers[2].Close()
	if _, err := Recover(cl, addrs, sg, []int{2}); err != nil {
		t.Fatal(err)
	}
	for _, m := range sg.Members {
		n, err := CountSet(cl, addrs[:2], m.Set)
		if err != nil {
			t.Fatal(err)
		}
		if n != 600 {
			t.Errorf("member %s: %d records, want 600", m.Set, n)
		}
	}
}
