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

// TestCloseWithSilentClient: Close returns however quiet a client is — a
// connection that never sends its request is closed, not waited for.
func TestCloseWithSilentClient(t *testing.T) {
	mgr, workers, _ := startCluster(t, 1, 1<<20)
	for name, node := range map[string]*server{"manager": mgr.server, "worker": workers[0].server} {
		silent, err := net.Dial("tcp", node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer silent.Close()
		within(t, 5*time.Second, "accepting the silent client", func() {
			for accepted := false; !accepted; time.Sleep(time.Millisecond) {
				node.mu.Lock()
				accepted = len(node.conns) == 1
				node.mu.Unlock()
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
		for dec := gob.NewDecoder(client); ; {
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
		_ = client.Close()
		wg.Wait()
		if _, ok := w.Pool().GetSet("made"); ok {
			t.Fatal("a request without the key took effect")
		}
	})
}
