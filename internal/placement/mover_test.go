package placement

import (
	"encoding/binary"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pangea/internal/cluster"
	"pangea/internal/core"
)

// replicaSets lists the sets on every worker that are not the source.
func replicaSets(workers []*cluster.Worker, source string) []string {
	var names []string
	for _, w := range workers {
		for _, s := range w.Pool().Sets() {
			if s.Name() != source {
				names = append(names, s.Name())
			}
		}
	}
	return names
}

// TestFailedGroupBuildLeavesNothing: a build that fails mid-stream must
// leave no replica or safety set on any worker and register no replica, so
// that the retry succeeds. The source holds one record too large for the
// replicas' pages, so the workers refuse it when the build reaches it. At the
// parent commit the half-filled sets stayed, the first replica was already
// registered, and the retry died on "already exists".
func TestFailedGroupBuildLeavesNothing(t *testing.T) {
	workers, addrs, cl := startCluster(t, 3)
	if err := cl.CreateSet("tbl", 128<<10, 0); err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(900)
	recs[500] = append(recs[500], make([]byte, rowSpec.PageSize)...)
	if err := DispatchRandom(cl, addrs, "tbl", recs); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSafeGroup(cl, addrs, "tbl", twoPartitioners(12), rowSpec, 2); err == nil {
		t.Fatal("a build whose replicas refuse a record must fail")
	}
	if left := replicaSets(workers, "tbl"); len(left) != 0 {
		t.Errorf("failed build left sets behind: %v", left)
	}
	if group, err := cl.Replicas("tbl"); err != nil || len(group) != 1 {
		t.Errorf("failed build registered replicas: %v (err %v)", group, err)
	}
	if _, err := BuildSafeGroup(cl, addrs, "tbl", twoPartitioners(12), core.SetSpec{PageSize: 128 << 10}, 2); err != nil {
		t.Errorf("retry after a failed build: %v", err)
	}
}

// TestGroupBuildStreamsSourceOnce: the build streams its source once per
// worker however many partitioners it has. A source record's random node is
// the worker it is stored on, so the records a partitioner's Key is shown
// come in one run per stream of a worker: three workers, three runs. At the
// parent commit every partitioner streamed the source in a pass of its own
// and the collision pass streamed it again — six runs and two calls a record.
func TestGroupBuildStreamsSourceOnce(t *testing.T) {
	_, addrs, cl := startCluster(t, 3)
	if err := cl.CreateSet("tbl", 64<<10, 0); err != nil {
		t.Fatal(err)
	}
	if err := DispatchRandom(cl, addrs, "tbl", mkRecords(900)); err != nil {
		t.Fatal(err)
	}
	parts := twoPartitioners(12)
	seen := make([]struct{ calls, runs, last int }, len(parts))
	for i, p := range parts {
		key, st := p.Key, &seen[i]
		st.last = -1
		p.Key = func(rec []byte) []byte {
			st.calls++
			if node := RandomNode(rec, len(addrs)); node != st.last {
				st.runs, st.last = st.runs+1, node
			}
			return key(rec)
		}
	}
	if _, err := BuildGroup(cl, addrs, "tbl", parts, rowSpec); err != nil {
		t.Fatal(err)
	}
	for i, st := range seen {
		if st.calls != 900 || st.runs != len(addrs) {
			t.Errorf("%s: Key saw %d records in %d per-worker runs, want 900 in %d", parts[i].Scheme, st.calls, st.runs, len(addrs))
		}
	}
}

// TestSenderConcurrentSends: many goroutines share one sender, with enough
// bytes that batches ship mid-stream. Every record must arrive exactly once
// at each node it was sent to; a node whose AddRecords fails must report it
// to the senders from then on, and to Flush, while the other nodes still get
// everything.
func TestSenderConcurrentSends(t *testing.T) {
	_, addrs, cl := startCluster(t, 3)
	for _, addr := range addrs[:2] { // node 2 has no "dst": every batch to it fails
		if err := cl.CreateSetOn(addr, "dst", 64<<10, 0); err != nil {
			t.Fatal(err)
		}
	}
	const senders, each = 8, 400
	recs := kibRecords(senders * each) // 3.2 MB a node: several batches
	s := NewSender(cl, addrs, "dst")
	var wg sync.WaitGroup
	var failedSends atomic.Int64
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, rec := range recs[g*each : (g+1)*each] {
				for node := range addrs {
					if err := s.Send(node, rec); err != nil {
						if node != 2 || !strings.Contains(err.Error(), "node 2") {
							t.Errorf("send to node %d: %v", node, err)
						}
						failedSends.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	if failedSends.Load() == 0 {
		t.Error("node 2's batches filled mid-stream, yet no Send reported their failure")
	}
	if err := s.Flush(); err == nil || !strings.Contains(err.Error(), "node 2") {
		t.Errorf("Flush = %v, want node 2's error", err)
	}
	if err := s.Send(2, recs[0]); err == nil {
		t.Error("a send to a failed node must keep failing")
	}
	for node, addr := range addrs[:2] {
		counts := make(map[uint64]int, len(recs))
		if err := cl.FetchSet(addr, "dst", func(rec []byte) error {
			counts[binary.LittleEndian.Uint64(rec[16:24])]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for id := range recs {
			if counts[uint64(id)] != 1 {
				t.Fatalf("node %d holds record %d %d times, want once", node, id, counts[uint64(id)])
			}
		}
	}
}

// kibRecords is mkRecords with every record padded to 1 KiB, so that a few
// thousand of them fill batches.
func kibRecords(n int) [][]byte {
	recs := mkRecords(n)
	for i, rec := range recs {
		recs[i] = append(rec, make([]byte, 1000)...)
	}
	return recs
}

// addInFlight is the frame of a goroutine whose AddRecords is unanswered. A
// mover that has returned has none, not even for a moment: its senders were
// drained, on the failure paths too.
const addInFlight = "pangea/internal/cluster.(*Client).AddFrames"

// returnsWithin fails the test if the mover has not returned after d.
func returnsWithin(t *testing.T, d time.Duration, mover func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		mover()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("the mover has not returned %v after its worker was closed", d)
	}
}

// TestBuildGroupWorkerKilledMidBuild: worker 1 is closed from inside the build
// — by a partitioner's Key, once the first batch of a replica has reached that
// worker, so with a batch in flight or just answered, the next one filling and
// the source still streaming. (Every node is sent three batches a replica, and
// the second waits for the first to be answered: the Key cannot miss it.) The
// build must fail, not hang;
// when it returns no request of its is in flight and no goroutine of it alive;
// and the workers that survive hold none of its sets, the manager none of its
// replicas.
func TestBuildGroupWorkerKilledMidBuild(t *testing.T) {
	workers, addrs, cl := startCluster(t, 3)
	if err := cl.CreateSet("tbl", 64<<10, 0); err != nil {
		t.Fatal(err)
	}
	if err := DispatchRandom(cl, addrs, "tbl", kibRecords(9000)); err != nil { // 3 MB a worker and a replica
		t.Fatal(err)
	}
	parts := twoPartitioners(12)
	key, killed := parts[1].Key, false
	parts[1].Key = func(rec []byte) []byte {
		if set, ok := workers[1].Pool().GetSet("tbl_pt_hash_orderkey_"); !killed && ok && set.NumPages() > 0 {
			killed = true
			if err := workers[1].Close(); err != nil {
				t.Errorf("closing worker 1: %v", err)
			}
		}
		return key(rec)
	}
	returnsWithin(t, 30*time.Second, func() {
		if _, err := BuildGroup(cl, addrs, "tbl", parts, rowSpec); err == nil {
			t.Error("a build whose worker was closed under it reported success")
		}
	})
	if !killed {
		t.Fatal("no batch reached worker 1 in mid-build: the test closed nothing")
	}
	checkNoGoroutines(t, 0, addInFlight)
	if left := replicaSets([]*cluster.Worker{workers[0], workers[2]}, "tbl"); len(left) != 0 {
		t.Errorf("the failed build left sets on the surviving workers: %v", left)
	}
	if group, err := cl.Replicas("tbl"); err != nil || len(group) != 1 {
		t.Errorf("the failed build registered replicas: %v (err %v)", group, err)
	}
}

// TestDispatchRandomWorkerKilledMidLoad: the same for a load, which has no
// hook to be closed from: a goroutine beside it closes worker 1 the moment the
// load's first batch has reached it, five batches a node before the end.
func TestDispatchRandomWorkerKilledMidLoad(t *testing.T) {
	workers, addrs, cl := startCluster(t, 3)
	if err := cl.CreateSet("tbl", 64<<10, 0); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() {
		for set, _ := workers[1].Pool().GetSet("tbl"); set.NumPages() == 0; {
			time.Sleep(50 * time.Microsecond)
		}
		closed <- workers[1].Close()
	}()
	returnsWithin(t, 30*time.Second, func() {
		err := DispatchRandom(cl, addrs, "tbl", kibRecords(18000)) // 6 MB a worker
		if err == nil || !strings.Contains(err.Error(), "node 1") {
			t.Errorf("a load whose worker 1 was closed under it: err = %v, want node 1's failure", err)
		}
	})
	if err := <-closed; err != nil {
		t.Errorf("closing worker 1: %v", err)
	}
	checkNoGoroutines(t, 0, addInFlight)
}
