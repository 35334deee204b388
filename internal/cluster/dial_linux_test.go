package cluster

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDialTimesOut: a connect that the peer never completes costs its caller
// dialTimeout. The peer is a listening socket whose accept queue is full —
// Linux drops further SYNs, so a connect to it hangs until something bounds
// it. This pins what dial relies on, an unexported detail of net: that it
// arms the connecting socket's deadline from the context's deadline alone and
// starts no goroutine to watch a context with no Done channel (connectBy).
func TestDialTimesOut(t *testing.T) {
	shorten(t, &dialTimeout, 200*time.Millisecond)
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	// Nobody accepts: fill the queue until a connect stops completing.
	full := false
	for i := 0; i < 16 && !full; i++ {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			var ne net.Error // a context's deadline: not os.ErrDeadlineExceeded
			full = errors.As(err, &ne) && ne.Timeout()
			continue
		}
		defer c.Close()
	}
	if !full {
		t.Skip("connects to a full accept queue do not hang on this kernel")
	}
	// goroutines runs a connect that hangs and reports how many goroutines
	// have a frame of net while it is in flight, the one that calls it included.
	goroutines := func(what string, connect func() error) (n int) {
		done := make(chan error, 1)
		go func() { done <- connect() }()
		time.Sleep(dialTimeout / 2)
		buf := make([]byte, 1<<20)
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "net.(*") {
				n++
			}
		}
		select {
		case err := <-done:
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Errorf("%s: err %v, want a timeout", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s to a peer that never completes the connect still blocked after 5s", what)
		}
		return n
	}
	// The property connectBy exists for: a connect in flight is its caller and
	// nothing else. net.DialTimeout's is two goroutines, the second watching
	// its context; if a Go release makes dial's two as well, the cost measured
	// on tpch_cluster (BENCH_19.json, bisect) is back.
	if n := goroutines("dial", func() error { _, err := dial(addr); return err }); n != 1 {
		t.Errorf("a dial in flight is %d goroutines, want 1: net watches connectBy after all", n)
	}
	if n := goroutines("net.DialTimeout", func() error {
		_, err := net.DialTimeout("tcp", addr, dialTimeout)
		return err
	}); n != 2 {
		t.Logf("net.DialTimeout in flight is %d goroutines, not 2: connectBy may no longer be needed", n)
	}
}
