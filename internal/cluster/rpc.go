package cluster

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The RPC core: what cuts across the messages of protocol.go, written once for
// manager, worker and client — the two envelopes, the connection with its
// deadlines, the server (accept loop, key check, shutdown) and the client call.

// request is the only value a client sends: one message under the sender's
// key token. The token is compared in one place, server.recv.
type request struct {
	Auth string
	Msg  any
}

// response is the only value a server sends. A failed request is answered
// with Err set and no message; a reply with nothing to say has neither. A
// stream (FetchSet, GetSetPages) is a run of responses, so its failure
// travels like a unary call's.
type response struct {
	Err string
	Msg any
}

// Deadlines, the only ones in the package; conn's methods are the only code
// that arms them. Variables only so that the package's tests can shorten
// them — nothing else assigns to them.
var (
	// dialTimeout bounds connection set-up.
	dialTimeout = 5 * time.Second
	// requestTimeout bounds the server's wait for each request on a
	// connection, the first and every one after a reply; a client drops a
	// kept connection idle for half of it, so it never sends on one the
	// server is about to close. The slowest request seen to arrive, a 1 MiB
	// AddRecords batch, took 8 ms.
	requestTimeout = 10 * time.Second
	// messageTimeout bounds every later read and every write, re-armed per
	// message, so a long stream is not a slow one. A reply waits on the
	// peer's work: over `go test ./internal/exp ./internal/tpch
	// ./internal/placement` (throttled drives, pools smaller than their data)
	// the slowest was 21 ms, an acknowledged 1 MiB AddRecords; the slowest a
	// healthy worker can be is a handler that waits out the pool's 5 s
	// AllocTimeout. A minute is 12 times the latter, 2900 times the former.
	messageTimeout = time.Minute
)

// conn is one TCP connection with its gob codecs, so gob's type descriptors
// cross once a connection. The encoder serializes concurrent senders itself
// (a scan's computation threads acknowledge pages on one connection).
type conn struct {
	c    net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	got  int64       // bytes read, so that a failed read tells whether any came
	addr string      // the dialed address, for a client's connection
	idle *time.Timer // closes a kept connection unused for requestTimeout/2
}

func newConn(nc net.Conn) *conn {
	c := &conn{c: nc, enc: gob.NewEncoder(nc)}
	c.dec = gob.NewDecoder(c)
	return c
}

// Read is the decoder's source: the socket, counted.
func (c *conn) Read(p []byte) (int, error) {
	n, err := c.c.Read(p)
	c.got += int64(n)
	return n, err
}

// connectBy is a context with a deadline and no Done channel: net arms the
// connecting socket's deadline from it and starts no goroutine to watch for a
// cancellation that cannot come. That goroutine made net.DialTimeout cost
// tpch_cluster's Q12 — two dials, then a fork-join on every core — 28 % in
// the benchmark's traced pairs and 15 % run alone (BENCH_19.json, bisect).
// TestDialTimesOut counts the goroutines of a dial in flight.
type connectBy struct {
	context.Context
	deadline time.Time
}

func (c connectBy) Deadline() (time.Time, bool) { return c.deadline, true }

// dial is the one place a connection is opened.
func dial(addr string) (*conn, error) {
	by := connectBy{context.Background(), time.Now().Add(dialTimeout)}
	c, err := new(net.Dialer).DialContext(by, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	conn := newConn(c)
	conn.addr = addr
	return conn, nil
}

// idle holds the client side's kept connections by address, the one put back
// last on top. Client and DataProxy share it, so they share connections.
var idle = struct {
	sync.Mutex
	conns map[string][]*conn
}{conns: make(map[string][]*conn)}

// open takes a kept connection to addr, or dials one.
func open(addr string) (*conn, error) {
	idle.Lock()
	for l := idle.conns[addr]; len(l) > 0; l = idle.conns[addr] {
		c := l[len(l)-1]
		idle.conns[addr] = l[:len(l)-1]
		if c.idle.Stop() { // else it is expiring, and closes itself
			idle.Unlock()
			return c, nil
		}
	}
	idle.Unlock()
	return dial(addr)
}

// keep puts c back on the idle list, after an exchange that ended cleanly.
func (c *conn) keep() {
	idle.Lock()
	idle.conns[c.addr] = append(idle.conns[c.addr], c)
	c.idle = time.AfterFunc(requestTimeout/2, c.expire)
	idle.Unlock()
}

// expire closes c, unused since it was kept, and takes it off the list.
func (c *conn) expire() {
	idle.Lock()
	idle.conns[c.addr] = slices.DeleteFunc(idle.conns[c.addr], func(k *conn) bool { return k == c })
	idle.Unlock()
	_ = c.close()
}

// send writes one envelope, giving the peer messageTimeout to take it.
func (c *conn) send(env any) error {
	if err := c.c.SetWriteDeadline(time.Now().Add(messageTimeout)); err != nil {
		return err
	}
	return c.enc.Encode(env)
}

// recv reads one envelope into env, waiting at most within for it.
func (c *conn) recv(env any, within time.Duration) error {
	if err := c.c.SetReadDeadline(time.Now().Add(within)); err != nil {
		return err
	}
	return c.dec.Decode(env)
}

// reply answers the request at hand: with err if there is one, else with msg.
func (c *conn) reply(msg any, err error) error {
	if err != nil {
		return c.send(response{Err: err.Error()})
	}
	return c.send(response{Msg: msg})
}

func (c *conn) close() error { return c.c.Close() }

// exchange sends req to addr under the key token auth on a kept connection,
// or a fresh one, and reads what comes back with read, which reports whether
// the exchange ended cleanly — its last reply read whole — so that the
// connection can be kept. A kept connection gets one retry, on a fresh dial,
// if the peer turns out to have closed it before any byte of a reply came: a
// broken pipe or a reset on the send, an EOF or a reset on the first read.
// The server closed it while it was idle and never read the request. A
// timeout or a partial reply is never retried, so no request is applied twice.
func exchange(addr, auth string, req any, read func(*conn) (clean bool, err error)) error {
	c, err := open(addr)
	for err == nil {
		clean, got := false, c.got
		if err = c.send(request{Auth: auth, Msg: req}); err != nil {
			err = fmt.Errorf("cluster: send %T to %s: %w", req, addr, err)
		} else if clean, err = read(c); clean {
			c.keep()
			return err
		}
		_ = c.close()
		closed := errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
		if c.idle == nil || c.got != got || !closed { // fresh, answered in part, or not closed
			return err
		}
		c, err = dial(addr)
	}
	return err
}

// remoteError is the Err of a whole response: the peer's failure, after which
// the connection is still in step.
type remoteError string

func (e remoteError) Error() string { return string(e) }

// whole reports whether next's err leaves the connection in step.
func whole(err error) bool {
	_, remote := err.(remoteError)
	return err == nil || remote
}

// next reads one response: its Err becomes the error, its message must be a
// T. T is any for requests that are only acknowledged.
func next[T any](c *conn) (reply T, err error) {
	var resp response
	if err := c.recv(&resp, messageTimeout); err != nil {
		return reply, fmt.Errorf("cluster: reply from %s: %w", c.c.RemoteAddr(), err)
	}
	if resp.Err != "" {
		return reply, remoteError(resp.Err)
	}
	reply, ok := resp.Msg.(T)
	if !ok && (resp.Msg != nil || any(reply) != nil) {
		return reply, fmt.Errorf("cluster: unexpected reply %T from %s", resp.Msg, c.c.RemoteAddr())
	}
	return reply, nil
}

// replies reads a stream: every response goes to each until each reports the
// last one or fails; clean, if the last reply or one with Err was read whole.
func replies[T any](c *conn, each func(T) (last bool, err error)) (clean bool, err error) {
	for {
		v, err := next[T](c)
		if err != nil {
			return whole(err), err
		}
		if last, err := each(v); last || err != nil {
			return last && err == nil, err
		}
	}
}

// call is one request/response round trip.
func call[T any](addr, auth string, req any) (reply T, err error) {
	err = exchange(addr, auth, req, func(c *conn) (bool, error) {
		reply, err = next[T](c)
		return whole(err), err
	})
	return reply, err
}

// handler serves one request of a node. It returns the reply, or the error
// to answer with; a streaming handler sends all but its last reply itself,
// through c.
type handler func(c *conn, msg any) (reply any, err error)

// server is the serving half of a node: the listener, the accept loop, the
// live connections, the key check and shutdown. Manager and Worker embed it
// and supply only their handler.
type server struct {
	ln   net.Listener
	auth string
	h    handler
	logf func(format string, args ...any)

	mu     sync.Mutex
	conns  map[*conn]struct{} // live, so that Close can end them
	closed bool
	wg     sync.WaitGroup // the accept loop and every connection's goroutine
}

// newServer builds the server of handle on ln for holders of privateKey.
func newServer(ln net.Listener, privateKey string, handle handler, logf func(string, ...any)) *server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &server{ln: ln, auth: AuthToken(privateKey), h: handle, logf: logf, conns: make(map[*conn]struct{})}
}

// start begins accepting. It is apart from newServer because a handler reaches
// the server through the node that embeds it: the node is whole first.
func (s *server) start() {
	s.wg.Add(1)
	go s.serve()
}

// Addr returns the node's listen address.
func (s *server) Addr() string { return s.ln.Addr().String() }

// Close stops serving: it closes the listener and every live connection —
// however quiet its client — and waits for their goroutines. A worker's data
// on disk is preserved. Closing twice is harmless.
func (s *server) Close() error {
	err := s.stop(nil)
	s.wg.Wait()
	return err
}

// stop is Close without the wait, for a handler that cannot wait for itself;
// it spares that handler's connection, which still owes its reply.
func (s *server) stop(spare *conn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for c := range s.conns {
		if c != spare {
			_ = c.close() // its goroutine sees the error and leaves
		}
	}
	return s.ln.Close()
}

// serve is the accept loop. Only the listener's close ends it: any other
// accept error (EMFILE, an aborted handshake) is backed off from and retried,
// as net/http does, so a transient shortage does not leave a live process deaf.
func (s *server) serve() {
	defer s.wg.Done()
	var delay time.Duration
	for {
		nc, err := s.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			delay = min(max(2*delay, 5*time.Millisecond), time.Second)
			s.logf("cluster: accept on %s: %v; retrying in %v", s.Addr(), err, delay)
			time.Sleep(delay)
			continue
		}
		delay = 0
		c := newConn(nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = c.close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
			_ = c.close()
		}()
	}
}

// serveConn serves a connection's requests in turn, each given requestTimeout
// to arrive, until the peer closes it, a read or key check fails, or a reply
// cannot be sent. A refusal is answered; a connection that closed or timed out
// is not, as its client would take that answer for its next request's reply.
func (s *server) serveConn(c *conn) {
	for {
		msg, err := s.recv(c, requestTimeout)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, os.ErrDeadlineExceeded) {
				_ = c.reply(nil, err) // best effort: the peer may be gone, or not speaking gob
			}
			return
		}
		if _, ok := msg.(ShutdownReq); ok {
			_ = s.stop(c) // first, so that the acknowledgement means "no longer accepting"
			_ = c.reply(nil, nil)
			return
		}
		reply, err := s.h(c, msg)
		if err := c.reply(reply, err); err != nil {
			s.logf("cluster: reply to %T: %v", msg, err)
			return
		}
	}
}

// recv reads one request and checks its key: the one place the token is
// compared, for every message type a node serves or will serve.
func (s *server) recv(c *conn, within time.Duration) (any, error) {
	var req request
	if err := c.recv(&req, within); err != nil {
		return nil, err
	}
	if req.Auth != s.auth {
		return nil, errors.New("cluster: invalid private key")
	}
	return req.Msg, nil
}
