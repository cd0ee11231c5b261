// Package netloop is a second event-driven framework on top of the same
// runtime — the paper's further work ("a more universal implementation to
// support more event-driven frameworks"). It is a libevent-style message
// server (libevent is the related-work archetype the paper cites): one
// dispatch goroutine drains a queue of connection events (message arrived,
// client connected/disconnected) and runs the registered handlers, so
// handlers enjoy the same single-threaded discipline as a GUI's EDT.
//
// Because the dispatch loop is an eventloop.Loop, it registers directly as
// a virtual target: a message handler can offload parsing or computation
// with `target virtual(worker) nowait` and hop back with
// `target virtual(dispatch)` to write responses, keeping all connection
// state single-threaded without locks.
package netloop

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eventloop"
	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/reactor"
	"repro/internal/trace"
)

// Handler processes one line-delimited message on the dispatch loop.
type Handler func(c *Client, line string)

// Server is a line-oriented message server with single-threaded dispatch.
// Two transports feed the same dispatch loop: the portable default spawns
// one reader goroutine per connection; EnableReactor replaces those readers
// with a single readiness-driven poll goroutine (see internal/reactor).
type Server struct {
	name     string
	loop     *eventloop.Loop
	registry *gid.Registry
	reactor  *reactor.Reactor // nil on the goroutine-per-connection transport

	mu        sync.Mutex
	ln        net.Listener
	clients   map[int64]*Client
	onMessage Handler
	onConnect func(*Client)
	onClose   func(*Client)
	closed    bool

	// Survivability knobs, set before Start (see SetIdleDeadline and
	// SetMaxConns). Both apply to either transport.
	idleDeadline time.Duration
	maxConns     int64        // cap on live connections; 0 = none
	liveConns    atomic.Int64 // connections holding a slot under maxConns
	busyLine     string       // sent to shed connections before the close

	nextID         atomic.Int64
	accepted       atomic.Int64
	messages       atomic.Int64
	dropped        atomic.Int64
	connShed       atomic.Int64
	deadlineCloses atomic.Int64 // default-transport idle closes
	wg             sync.WaitGroup

	stopOnce sync.Once
	stopDone chan struct{}
}

// New creates a server whose dispatch loop is named name and registered in
// reg (nil means gid.Default). Register s.Loop() as a virtual target to use
// directives inside handlers.
func New(name string, reg *gid.Registry) *Server {
	if reg == nil {
		reg = &gid.Default
	}
	l := eventloop.New(name, reg)
	l.Start()
	return &Server{
		name:     name,
		loop:     l,
		registry: reg,
		clients:  make(map[int64]*Client),
		stopDone: make(chan struct{}),
	}
}

// Loop returns the dispatch loop (the server's EDT analogue).
func (s *Server) Loop() *eventloop.Loop { return s.loop }

// HandleFunc sets the message handler. Must be called before Start.
func (s *Server) HandleFunc(h Handler) { s.onMessage = h }

// OnConnect sets a connection callback, dispatched on the loop.
func (s *Server) OnConnect(fn func(*Client)) { s.onConnect = fn }

// OnClose sets a disconnection callback, dispatched on the loop.
func (s *Server) OnClose(fn func(*Client)) { s.onClose = fn }

// Shed is always 0: netloop has no per-message admission control; kept
// because benchmark/ reads it.
func (s *Server) Shed() int64 { return 0 }

// SetIdleDeadline disconnects clients that send nothing for d — the
// slowloris defence. A connection the server is actively writing to is not
// idle: outbound activity counts, so passive receivers being streamed to
// stay up. On the reactor transport the deadline is enforced by the poll
// goroutine's timer wheel; on the default transport by per-read deadlines
// on the connection. Zero disables (the seed behaviour). Must be called
// before Start.
func (s *Server) SetIdleDeadline(d time.Duration) { s.idleDeadline = d }

// SetMaxConns caps live connections at n: beyond it, new connections are
// shed at accept — sent busyLine (if non-empty, flushed before the close)
// and disconnected, counted by ConnShed. Zero n removes the cap. Must be
// called before Start.
func (s *Server) SetMaxConns(n int, busyLine string) {
	if n <= 0 {
		s.maxConns, s.busyLine = 0, ""
		return
	}
	s.maxConns, s.busyLine = int64(n), busyLine
}

// takeConnSlot admits one connection under the MaxConns cap. At the cap it
// emits trace.OpShed and reports false.
func (s *Server) takeConnSlot() bool {
	if s.maxConns == 0 {
		return true
	}
	if s.liveConns.Add(1) > s.maxConns {
		s.liveConns.Add(-1)
		trace.Emit(trace.OpShed, s.name+"/conns")
		return false
	}
	return true
}

// ConnShed returns the number of connections rejected by the MaxConns cap.
func (s *Server) ConnShed() int64 { return s.connShed.Load() }

// DeadlineCloses returns the number of connections closed by the idle
// deadline, across both transports.
func (s *Server) DeadlineCloses() int64 {
	n := s.deadlineCloses.Load()
	if s.reactor != nil {
		n += s.reactor.Stats().DeadlineCloses
	}
	return n
}

// Dropped returns the number of received lines never delivered because the
// dispatch loop had stopped.
func (s *Server) Dropped() int64 { return s.dropped.Load() }

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and begins
// accepting. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	if s.reactor != nil {
		return s.reactor.Listen(addr, s.reactorAccept)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.accepted.Add(1)
		if !s.takeConnSlot() {
			// At the cap: shed at the edge. The busy line rides the kernel
			// buffer out before the close (blocking transport, so no flush
			// machinery is needed).
			s.connShed.Add(1)
			if s.busyLine != "" {
				fmt.Fprintf(conn, "%s\n", s.busyLine)
			}
			conn.Close()
			continue
		}
		c := s.newClient(conn, nil)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			c.releaseSlot()
			return
		}
		s.clients[c.id] = c
		s.mu.Unlock()
		if s.onConnect != nil {
			s.loop.Post(func() { s.onConnect(c) })
		}
		s.wg.Add(1)
		go s.readLoop(c)
	}
}

// deliver hands one line to the message handler.
func (s *Server) deliver(c *Client, line string) {
	if s.onMessage != nil {
		s.onMessage(c, line)
	}
}

// deliverNext is the body of every "msg" event a client posts, bound once per
// connection as c.next: it delivers the client's oldest pending line. One
// goroutine reads a connection, so its posts reach the loop in the order its
// entries were pushed, and each dispatch pops exactly one entry: every
// dispatch delivers the line it was posted for.
func (s *Server) deliverNext(c *Client) { s.deliver(c, c.pending.pop()) }

// readLoop turns each received line into a dispatch-loop event — the
// inversion of control of Section I: the framework invokes the handler.
func (s *Server) readLoop(c *Client) {
	defer s.wg.Done()
	pprof.Do(context.Background(), pprof.Labels("target", s.name), func(context.Context) {
		s.readLines(c)
	})
}

func (s *Server) readLines(c *Client) {
	var r io.Reader = c.conn
	if d := s.idleDeadline; d > 0 {
		r = &idleReader{c: c, d: d}
	}
	scanner := bufio.NewScanner(r)
	for scanner.Scan() {
		s.handleLine(c, scanner.Text())
	}
	c.conn.Close()
	s.clientGone(c)
}

// idleReader enforces the idle deadline on the default transport: each Read
// carries a deadline of d, and a timeout only propagates (ending the read
// loop, closing the connection) when the server has not written to the
// client within d either — outbound traffic proves the connection is alive
// even if the peer never sends.
type idleReader struct {
	c *Client
	d time.Duration
}

func (ir *idleReader) Read(p []byte) (int, error) {
	for {
		ir.c.conn.SetReadDeadline(time.Now().Add(ir.d))
		n, err := ir.c.conn.Read(p)
		if n > 0 || err == nil {
			return n, err
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			if time.Now().UnixNano()-ir.c.lastWrite.Load() < int64(ir.d) {
				continue // recent outbound activity: not idle, keep reading
			}
			ir.c.server.deadlineCloses.Add(1)
		}
		return n, err
	}
}

// handleLine queues one received line on the client and posts the client's
// delivery closure to the dispatch loop: a message costs its line and the
// loop's Completion. Shared by both transports (per-connection reader
// goroutines and the reactor's poll goroutine).
func (s *Server) handleLine(c *Client, line string) {
	s.messages.Add(1)
	// When tracing is active the enqueue is bracketed by a "recv" span on the
	// read goroutine, so the handler's run span on the loop parents to the
	// network receive that caused it (the cross-boundary edge of the message
	// path).
	sc := trace.Open(trace.ActiveSink(), "recv", s.name)
	c.pending.push(line)
	if s.loop.PostLabeled("msg", c.next).Err() == executor.ErrShutdown {
		// The loop has stopped and will never pop the entry: take it back.
		c.pending.unpush()
		s.dropped.Add(1)
	}
	sc.Close()
}

// clientGone removes c from the table and fires the user OnClose at most
// once per client — and never once Stop has begun. Both transports funnel
// every disconnect path through here (reader EOF, reactor close, handler
// Close racing Stop), so close-during-read cannot double-fire OnClose.
func (s *Server) clientGone(c *Client) {
	s.mu.Lock()
	delete(s.clients, c.id)
	closed := s.closed
	s.mu.Unlock()
	c.releaseSlot()
	if closed || !c.closeFired.CompareAndSwap(false, true) {
		return
	}
	if s.onClose != nil {
		s.loop.Post(func() { s.onClose(c) })
	}
}

// Accepted returns the number of accepted connections.
func (s *Server) Accepted() int64 { return s.accepted.Load() }

// Messages returns the number of received messages.
func (s *Server) Messages() int64 { return s.messages.Load() }

// ClientCount returns the number of live connections.
func (s *Server) ClientCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.clients)
}

// Stop closes the listener, all connections, and the dispatch loop. Safe
// to call repeatedly and concurrently: the first caller tears down, later
// callers block until that teardown has finished instead of returning
// while readers may still be posting handlers.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		defer close(s.stopDone)
		s.mu.Lock()
		s.closed = true
		ln := s.ln
		conns := make([]*Client, 0, len(s.clients))
		for _, c := range s.clients {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
		if s.reactor != nil {
			// Fires each connection's reactor OnClose (ErrClosed) on the
			// poll goroutine; clientGone sees closed and stays silent.
			s.reactor.Stop()
		} else {
			for _, c := range conns {
				c.conn.Close()
			}
		}
		s.wg.Wait()
		s.loop.Stop()
	})
	<-s.stopDone
}

// DrainStop is the graceful Stop: accepting ends immediately, connections
// get until d to finish what is in flight — on the reactor transport that
// is the flush-before-close drain (spilled writes go out on their
// writability edges, stragglers are force-closed at the deadline); on the
// default transport the listener closes and connected clients get until d
// to disconnect — and then the server stops.
func (s *Server) DrainStop(d time.Duration) {
	if s.reactor != nil {
		s.reactor.Drain(d)
		s.Stop()
		return
	}
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) && s.ClientCount() > 0 {
		time.Sleep(2 * time.Millisecond)
	}
	s.Stop()
}

// Client is one connection on either transport: exactly one of conn
// (goroutine-per-connection) and rc (reactor) is non-nil.
type Client struct {
	server *Server
	conn   net.Conn
	rc     *reactor.Conn
	id     int64

	// pending holds the lines posted to the dispatch loop and not yet
	// delivered; next (Server.deliverNext bound to this client) is the body
	// of every one of those posts.
	pending fifo
	next    func()

	// partial holds a line fragment spanning readiness events; it is only
	// touched on the reactor's poll goroutine, so it needs no lock.
	partial []byte

	closeFired atomic.Bool
	// writeMu serializes the goroutine transport's writes and guards out,
	// the buffer each line is framed in: reused, so a Send allocates nothing.
	writeMu sync.Mutex
	out     []byte

	// lastWrite (unixnano of the last successful Send) feeds the default
	// transport's idle deadline: outbound activity keeps the client alive.
	lastWrite atomic.Int64

	// slotHeld/slotFreed track the MaxConns admission slot, released exactly
	// once however the connection ends.
	slotHeld  bool
	slotFreed atomic.Bool
}

// newClient builds the record of one accepted connection, on either
// transport, and binds its delivery closure once for the connection's life.
func (s *Server) newClient(conn net.Conn, rc *reactor.Conn) *Client {
	c := &Client{server: s, conn: conn, rc: rc, id: s.nextID.Add(1), slotHeld: s.maxConns > 0}
	c.next = func() { s.deliverNext(c) }
	return c
}

// maxIdleFIFO is the largest ring a fifo keeps once it drains; one that grew
// past it under a burst is dropped then, not pinned for the connection's life.
const maxIdleFIFO = 64

// fifo is a client's queue of pending lines: a ring whose slots are reused
// (zeroed when popped, so a drained ring references no line), pushed by the
// connection's one reading goroutine and popped on the dispatch loop.
type fifo struct {
	mu      sync.Mutex
	buf     []string
	head, n int
}

func (q *fifo) push(line string) {
	q.mu.Lock()
	if q.n == len(q.buf) {
		grown := make([]string, max(4, 2*len(q.buf)))
		for i := range q.n {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = line
	q.n++
	q.mu.Unlock()
}

// pop removes and returns the oldest line. A post pops only the entry
// pushed before it, so the ring is never empty here.
func (q *fifo) pop() string {
	q.mu.Lock()
	line := q.buf[q.head]
	q.buf[q.head] = ""
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	if q.n == 0 && len(q.buf) > maxIdleFIFO {
		q.buf, q.head = nil, 0
	}
	q.mu.Unlock()
	return line
}

// unpush removes the newest line, whose post the loop rejected.
func (q *fifo) unpush() {
	q.mu.Lock()
	q.n--
	q.buf[(q.head+q.n)%len(q.buf)] = ""
	q.mu.Unlock()
}

// releaseSlot frees the client's admission slot, at most once.
func (c *Client) releaseSlot() {
	if c.slotHeld && c.slotFreed.CompareAndSwap(false, true) {
		c.server.liveConns.Add(-1)
	}
}

// ID returns the connection's server-unique id.
func (c *Client) ID() int64 { return c.id }

// RemoteAddr returns the peer address.
func (c *Client) RemoteAddr() string {
	if c.rc != nil {
		return c.rc.RemoteAddr()
	}
	return c.conn.RemoteAddr().String()
}

// Send writes one line to the client. Safe from any goroutine (writes are
// serialized per connection), so offloaded blocks may reply directly. On
// the reactor transport it never blocks: what the socket refuses is
// queued and flushed on writability edges.
func (c *Client) Send(line string) error {
	if c.rc != nil {
		// Conn.Write copies what it queues: short lines are framed on the stack.
		var stack [256]byte
		buf := append(stack[:0], line...)
		buf = append(buf, '\n')
		return c.rc.Write(buf)
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.out = append(append(c.out[:0], line...), '\n')
	_, err := c.conn.Write(c.out)
	if err == nil {
		c.lastWrite.Store(time.Now().UnixNano())
	}
	return err
}

// Close disconnects the client.
func (c *Client) Close() error {
	if c.rc != nil {
		return c.rc.Close()
	}
	return c.conn.Close()
}
