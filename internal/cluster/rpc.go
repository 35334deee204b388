package cluster

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
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
	// requestTimeout bounds the wait for an accepted connection's first
	// request: a client dials in order to send, so a silent one is dead. The
	// slowest seen to arrive, a 1 MiB AddRecords batch, took 8 ms.
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

// conn is one TCP connection with its gob codecs. The encoder serializes
// concurrent senders itself (a scan's computation threads acknowledge pages
// on one connection).
type conn struct {
	c   net.Conn
	enc *gob.Encoder
	dec *gob.Decoder
}

func newConn(c net.Conn) *conn {
	return &conn{c: c, enc: gob.NewEncoder(c), dec: gob.NewDecoder(c)}
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
	return newConn(c), nil
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

// start opens a connection to addr and sends req under the key token auth.
// The caller reads the replies with next or replies, and closes.
func start(addr, auth string, req any) (*conn, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	if err := c.send(request{Auth: auth, Msg: req}); err != nil {
		_ = c.close() // the send error is the one to report
		return nil, fmt.Errorf("cluster: send %T to %s: %w", req, addr, err)
	}
	return c, nil
}

// next reads one response: its Err becomes the error, its message must be a
// T. T is any for requests that are only acknowledged.
func next[T any](c *conn) (reply T, err error) {
	var resp response
	if err := c.recv(&resp, messageTimeout); err != nil {
		return reply, fmt.Errorf("cluster: reply from %s: %w", c.c.RemoteAddr(), err)
	}
	if resp.Err != "" {
		return reply, errors.New(resp.Err)
	}
	reply, ok := resp.Msg.(T)
	if !ok && (resp.Msg != nil || any(reply) != nil) {
		return reply, fmt.Errorf("cluster: unexpected reply %T from %s", resp.Msg, c.c.RemoteAddr())
	}
	return reply, nil
}

// replies reads a stream: every response goes to each until each reports the
// last one or fails.
func replies[T any](c *conn, each func(T) (last bool, err error)) error {
	for {
		v, err := next[T](c)
		if err != nil {
			return err
		}
		if last, err := each(v); last || err != nil {
			return err
		}
	}
}

// call is one request/response round trip on a fresh connection.
func call[T any](addr, auth string, req any) (reply T, err error) {
	c, err := start(addr, auth, req)
	if err != nil {
		return reply, err
	}
	defer c.close()
	return next[T](c)
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

// serveConn serves one connection: today one request, answered and closed.
// Nothing here assumes the request is the connection's only one — a kept
// connection is this body in a loop.
func (s *server) serveConn(c *conn) {
	msg, err := s.recv(c, requestTimeout)
	if err != nil {
		_ = c.reply(nil, err) // best effort: the peer may be gone, or not speaking gob
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
