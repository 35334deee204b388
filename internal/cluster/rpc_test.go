package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"pangea/internal/core"
)

// shorten sets one of the package's deadlines for the length of a test.
func shorten(t testing.TB, timeout *time.Duration, d time.Duration) {
	t.Helper()
	old := *timeout
	*timeout = d
	t.Cleanup(func() { *timeout = old })
}

// within fails the test if fn has not returned after d.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
	}
}

// live is the number of connections node is serving.
func live(node *server) int {
	node.mu.Lock()
	defer node.mu.Unlock()
	return len(node.conns)
}

// TestCloseWithSilentClient: Close returns however quiet a client is — a
// connection that never sends its request is closed, not waited for, and so
// is a kept one waiting for its next request.
func TestCloseWithSilentClient(t *testing.T) {
	mgr, workers, cl := startCluster(t, 1, 1<<20)
	// The manager keeps the connection of StartLocal's RegisterWorker; this
	// call leaves the worker one too.
	if _, err := cl.NodeStats(workers[0].Addr()); err != nil {
		t.Fatal(err)
	}
	for name, node := range map[string]*server{"manager": mgr.server, "worker": workers[0].server} {
		before := live(node)
		if before == 0 {
			t.Fatalf("%s: no kept connection open", name)
		}
		silent, err := net.Dial("tcp", node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer silent.Close()
		within(t, 5*time.Second, "accepting the silent client", func() {
			for live(node) != before+1 {
				time.Sleep(time.Millisecond)
			}
		})
		within(t, time.Second, name+".Close with a silent client connected", func() {
			if err := node.Close(); err != nil {
				t.Errorf("%s.Close: %v", name, err)
			}
		})
	}
}

// flakyListener fails its first Accepts with a temporary error.
type flakyListener struct {
	net.Listener
	failures atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// TestServeSurvivesAcceptError: a transient accept error is backed off from,
// not the end of serving.
func TestServeSurvivesAcceptError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyListener{Listener: ln}
	flaky.failures.Store(1)
	echo := func(_ *conn, msg any) (any, error) { return msg, nil }
	s := newServer(flaky, testKey, echo, t.Logf)
	s.start()
	defer checkNoGoroutines(t)
	defer s.Close()
	within(t, 5*time.Second, "a call after an accept error", func() {
		got, err := call[GetReplicasReq](s.Addr(), AuthToken(testKey), GetReplicasReq{Source: "echo"})
		if err != nil || got.Source != "echo" {
			t.Errorf("call after an accept error: %+v, %v", got, err)
		}
	})
	if left := flaky.failures.Load(); left >= 0 {
		t.Errorf("the injected accept error never fired (%d left)", left+1)
	}
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepts atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// counted serves w's requests on a listener of its own that counts accepts.
func counted(t *testing.T, w *Worker) (*server, *countingListener) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingListener{Listener: ln}
	s := newServer(counting, testKey, w.handle, t.Logf)
	s.start()
	t.Cleanup(func() { _ = s.Close() })
	return s, counting
}

// kept is the number of idle connections the client side holds to addr.
func kept(addr string) int {
	idle.Lock()
	defer idle.Unlock()
	return len(idle.conns[addr])
}

// TestCallsShareOneConnection: sequential calls to a node are served on one
// connection, kept between them.
func TestCallsShareOneConnection(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 1<<20)
	if err := cl.CreateSet("s", 4096, 0); err != nil {
		t.Fatal(err)
	}
	s, ln := counted(t, workers[0])
	for i := 0; i < 100; i++ {
		if _, err := cl.SetStats(s.Addr(), "s"); err != nil {
			t.Fatal(err)
		}
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Errorf("100 sequential calls took %d connections, want 1", n)
	}
}

// TestKeptConnectionToClosedWorker: a call that finds a kept connection to a
// worker closed since fails at the dial, promptly — no hang, no success.
func TestKeptConnectionToClosedWorker(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 1<<20)
	w := workers[0]
	if _, err := cl.NodeStats(w.Addr()); err != nil {
		t.Fatal(err)
	}
	if n := kept(w.Addr()); n != 1 {
		t.Fatalf("%d connections kept after a call, want 1", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	within(t, time.Second, "a call on a kept connection to a closed worker", func() {
		_, err := cl.NodeStats(w.Addr())
		var op *net.OpError
		if !errors.As(err, &op) || op.Op != "dial" {
			t.Errorf("err = %v, want a dial error", err)
		}
	})
}

// TestIdleCloseRetried: a kept connection the server closed while it was idle
// costs the next call one fresh dial, not a failure. The client normally lets
// go first (requestTimeout/2); the test holds the connection past the server's
// wait, as a client whose idle timer fired late would.
func TestIdleCloseRetried(t *testing.T) {
	shorten(t, &requestTimeout, 300*time.Millisecond)
	_, workers, cl := startCluster(t, 1, 1<<20)
	if err := cl.CreateSet("s", 4096, 0); err != nil {
		t.Fatal(err)
	}
	s, ln := counted(t, workers[0])
	if _, err := cl.SetStats(s.Addr(), "s"); err != nil {
		t.Fatal(err)
	}
	idle.Lock()
	held := len(idle.conns[s.Addr()]) == 1 && idle.conns[s.Addr()][0].idle.Reset(time.Minute)
	idle.Unlock()
	if !held {
		t.Fatal("the kept connection expired before the test could hold it")
	}
	within(t, 5*time.Second, "the server closing the idle connection", func() {
		for live(s) > 0 {
			time.Sleep(time.Millisecond)
		}
	})
	if _, err := cl.SetStats(s.Addr(), "s"); err != nil {
		t.Fatalf("a call on a connection the server closed while idle: %v", err)
	}
	if n := ln.accepts.Load(); n != 2 {
		t.Errorf("%d connections accepted, want 2: the first and one retry", n)
	}
}

// TestMutePeerTimesOut: a peer that accepts and never answers costs its
// caller the reply deadline, not forever — for a unary call and a stream.
func TestMutePeerTimesOut(t *testing.T) {
	shorten(t, &messageTimeout, 100*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn // accepted, never read, never answered
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()
	defer func() {
		ln.Close()
		<-accepting
		for _, c := range held {
			c.Close()
		}
	}()
	cl := NewClient("", testKey)
	calls := map[string]func() error{
		"SetStats": func() error { _, err := cl.SetStats(ln.Addr().String(), "s"); return err },
		"FetchSet": func() error { return cl.FetchSet(ln.Addr().String(), "s", func([]byte) error { return nil }) },
	}
	for name, fn := range calls {
		within(t, 5*time.Second, name+" against a mute peer", func() {
			if err := fn(); !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("%s against a mute peer: err = %v, want a timeout", name, err)
			}
		})
	}
}

// fillSet creates set on the cluster's first worker and loads n 64-byte
// records into pageSize pages.
func fillSet(t *testing.T, cl *Client, w *Worker, set string, pageSize int64, n int) {
	t.Helper()
	if err := cl.CreateSet(set, pageSize, 0); err != nil {
		t.Fatal(err)
	}
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = make([]byte, 64)
	}
	if err := cl.AddRecords(w.Addr(), set, recs); err != nil {
		t.Fatal(err)
	}
}

// TestFetchCallbackErrorReleasesPages: a FetchSet whose callback fails
// mid-stream ends in that error, and the worker — still streaming into a
// closed connection — lets go of its pages: the set can be dropped. (No
// goroutine stays behind either: startCluster's cleanup checks.)
func TestFetchCallbackErrorReleasesPages(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 8<<20)
	w := workers[0]
	fillSet(t, cl, w, "s", 8<<10, 40000) // ≈ 80 batches, far more than a socket buffers
	boom := errors.New("consumer exploded")
	var seen int
	err := cl.FetchSet(w.Addr(), "s", func([]byte) error {
		if seen++; seen == 600 { // in the second batch
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	// The drop fails while the abandoned scan still has a page pinned.
	var dropErr error
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if dropErr = cl.DropSet(w.Addr(), "s"); dropErr == nil {
			return
		}
	}
	t.Errorf("drop after an aborted fetch: %v", dropErr)
}

// TestFetchCallbackErrorClosesConnection: a FetchSet whose callback fails
// mid-stream does not keep its connection — the rest of the stream is still
// on it — and the next call to the worker works.
func TestFetchCallbackErrorClosesConnection(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 8<<20)
	w := workers[0]
	fillSet(t, cl, w, "s", 8<<10, 40000)
	if n := kept(w.Addr()); n != 1 {
		t.Fatalf("%d connections kept after the load, want 1", n)
	}
	boom := errors.New("consumer exploded")
	var seen int
	err := cl.FetchSet(w.Addr(), "s", func([]byte) error {
		if seen++; seen == 600 { // in the second batch
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if n := kept(w.Addr()); n != 0 {
		t.Errorf("%d connections kept after a fetch cut short, want 0", n)
	}
	if _, err := cl.NodeStats(w.Addr()); err != nil {
		t.Errorf("a call after the fetch cut short: %v", err)
	}
}

// TestScanKeepsConnectionWhenClean: a proxy scan keeps its connection after
// the end-of-scan handshake, and closes it when the computation fails.
func TestScanKeepsConnectionWhenClean(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 8<<20)
	w := workers[0]
	fillSet(t, cl, w, "s", 8<<10, 2000)
	dp := NewDataProxy(w, testKey)
	if err := dp.Scan("s", 2, func(int, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := kept(w.Addr()); n != 1 {
		t.Errorf("%d connections kept after a clean scan, want 1", n)
	}
	boom := errors.New("computation exploded")
	if err := dp.Scan("s", 2, func(int, []byte) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if n := kept(w.Addr()); n != 0 {
		t.Errorf("%d connections kept after an aborted scan, want 0", n)
	}
}

// TestScanWorkerClosedMidScan: closing the worker under a proxy scan ends the
// scan in an error, and every page the scan had pinned is released.
func TestScanWorkerClosedMidScan(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 8<<20)
	w := workers[0]
	fillSet(t, cl, w, "s", 8<<10, 8000) // ≈ 70 pages, many windows' worth
	var once sync.Once
	err := NewDataProxy(w, testKey).Scan("s", 2, func(int, []byte) error {
		once.Do(func() {
			closed := make(chan struct{})
			go func() {
				defer close(closed)
				_ = w.Close()
			}()
			select {
			case <-closed:
			case <-time.After(time.Second):
				t.Error("Worker.Close still blocked a second into a scan")
			}
		})
		return nil
	})
	if err == nil {
		t.Fatal("a scan whose worker was closed under it reported success")
	}
	set, _ := w.Pool().GetSet("s")
	if err := w.Pool().DropSet(set); err != nil {
		t.Errorf("pages still pinned after the aborted scan: %v", err)
	}
}

// TestCreateSetLeavesNothingBehind: a create that fails on one worker drops
// the set from the workers it had reached, and only from those.
func TestCreateSetLeavesNothingBehind(t *testing.T) {
	_, workers, cl := startCluster(t, 3, 1<<20)
	last := workers[2]
	if err := cl.CreateSetOn(last.Addr(), "taken", 4096, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddRecords(last.Addr(), "taken", [][]byte{[]byte("mine")}); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateSet("taken", 4096, 0); err == nil {
		t.Fatal("creating a set whose name one worker already has must fail")
	}
	for i, w := range workers[:2] {
		if _, ok := w.Pool().GetSet("taken"); ok {
			t.Errorf("worker %d kept the set of a create that failed", i)
		}
	}
	var got []string
	if err := cl.FetchSet(last.Addr(), "taken", func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	}); err != nil || len(got) != 1 || got[0] != "mine" {
		t.Errorf("the set that was there before: records %q, err %v, want it untouched", got, err)
	}
}

// TestPageWriterRejectsBadRecordSizes: a record no page can hold is an error,
// not an endless run of pinned-and-discarded pages, and so is an empty one.
func TestPageWriterRejectsBadRecordSizes(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 1<<20)
	w := workers[0]
	if err := cl.CreateSet("out", 4096, uint8(core.WriteBack)); err != nil {
		t.Fatal(err)
	}
	pw := NewDataProxy(w, testKey).NewPageWriter("out")
	for _, size := range []int{0, 4096, 1 << 20} {
		within(t, 5*time.Second, "PageWriter.Add of a bad record", func() {
			if err := pw.Add(make([]byte, size)); err == nil {
				t.Errorf("Add of a %d-byte record into 4096-byte pages succeeded", size)
			}
		})
	}
	if st, err := cl.SetStats(w.Addr(), "out"); err != nil || st["NumPages"] != 0 {
		t.Errorf("after the refused records: %d pages, err %v, want the set not grown", st["NumPages"], err)
	}
	if err := pw.Add([]byte("fits")); err != nil {
		t.Errorf("a good record after the refused ones: %v", err)
	}
	if err := pw.Close(); err != nil {
		t.Error(err)
	}
}

// FuzzServeConn feeds arbitrary bytes to a worker's per-connection path. The
// worker's key is one no seed carries and no mutation will find, so whatever
// arrives must be answered with an error or a close — never served, never a
// panic, never a connection that outlives its deadline.
func FuzzServeConn(f *testing.F) {
	for _, msg := range everyRequest {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(request{Auth: AuthToken("seed-key"), Msg: msg}); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
		f.Add(b.Bytes()[:b.Len()/2]) // a request that stops half-way
	}
	f.Add([]byte{})
	// Two requests back to back on one connection, as a kept one carries
	// them: the first one's refusal ends the connection, so the second is
	// never read.
	for _, pair := range [][2]any{
		{CreateSetReq{Spec: core.SetSpec{Name: "made", PageSize: 4096}}, CreateSetReq{Spec: core.SetSpec{Name: "made", PageSize: 4096}}},
		{NodeStatsReq{}, ShutdownReq{}},
		{GetSetPagesReq{Set: "s"}, PageDone{PageNum: -1}},
	} {
		var b bytes.Buffer
		enc := gob.NewEncoder(&b)
		for _, msg := range pair {
			if err := enc.Encode(request{Auth: AuthToken("seed-key"), Msg: msg}); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(b.Bytes())
	}
	shorten(f, &requestTimeout, 5*time.Millisecond) // what an input that stops half-way costs
	w, err := NewWorker("127.0.0.1:0", WorkerConfig{PrivateKey: testKey, Memory: 1 << 20, DiskDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = w.Close() })
	f.Fuzz(func(t *testing.T, data []byte) {
		client, served := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			c := newConn(served)
			w.serveConn(c)
			_ = c.close()
		}()
		go func() {
			defer wg.Done()
			_, _ = client.Write(data) // returns once the server has read it all, or closed
		}()
		// Read what the server says until it closes.
		_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
		answered := 0
		for dec := gob.NewDecoder(client); ; answered++ {
			var resp response
			if err := dec.Decode(&resp); err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					t.Error("the connection outlived its deadline")
				}
				break
			}
			if resp.Err == "" {
				t.Errorf("served a request without the key: %+v", resp)
			}
		}
		if answered > 1 {
			t.Errorf("%d requests answered on one connection: a refusal must end it", answered)
		}
		_ = client.Close()
		wg.Wait()
		if _, ok := w.Pool().GetSet("made"); ok {
			t.Fatal("a request without the key took effect")
		}
	})
}
