// Package reactor is the readiness-driven dispatch core under the
// networking layers: an edge-triggered epoll (linux) / kqueue (darwin) poll
// loop that turns file-descriptor readiness into handler invocations on a
// single confined goroutine — the libevent archetype the paper positions
// EDT-style runtimes against, implemented as a first-class layer of this
// runtime instead of being imitated on top of goroutine-per-connection
// net I/O.
//
// Shape of the machine:
//
//   - one poll goroutine owns every registered descriptor; it waits on the
//     platform poller and never anywhere else — on linux parked on the Go
//     runtime's netpoller like any goroutine reading a socket (no thread
//     sits in epoll_wait, see sys_linux.go), on darwin as a thread in kevent;
//   - registration is edge-triggered: each readiness event is drained (reads
//     into a single shared scratch buffer to a short read, EAGAIN or EOF;
//     writes out of the per-connection pending queue), so an edge is never
//     lost;
//   - a wakeup pipe lets any goroutine Post work onto the poll goroutine —
//     the cross-thread ingress every single-threaded event loop needs;
//   - each connection is a *virtual target bound to an FD*: its callbacks
//     (HandlerFuncs) are confined to the poll goroutine exactly as EDT
//     handlers are confined to the event-dispatch thread, so connection
//     state needs no locks; Reactor.Post hops back onto that context from
//     anywhere, and from a callback the usual directives offload to worker
//     targets and hop back;
//   - Conn.Write is safe from any goroutine: it writes straight to the
//     socket while the kernel buffer has room and spills the remainder into
//     a per-connection pending queue that the poll loop drains on the next
//     writability edge (backpressure becomes memory, never a blocked
//     goroutine).
//
// The hot path allocates nothing per event: readiness events land in a
// reused event array, reads go through one scratch buffer, and callbacks
// are pre-bound at registration. Only payload copies (and spans, when
// tracing is on) allocate.
//
// Cross-cutting integration mirrors the rest of the runtime: an
// Interceptor seam compatible with chaos.NetInterceptor injects Delay/Drop
// faults at the readiness layer, and trace spans parent handler work to the
// readiness event that caused it ("ready" → "recv" → "run").
//
// The survivability layer hardens the loop against hostile peers and
// crashing handlers:
//
//   - a poll-confined timer heap (timer.go) backs the per-connection idle
//     deadline (SetIdleDeadline) that reaps slowloris connections and
//     Drain's force-close deadline — zero extra goroutines, the poll wait's
//     timeout is the earliest armed timer;
//   - handler panics are contained: the dispatch is recovered, the
//     offending connection is closed with a HandlerPanicError, and the
//     loop keeps serving every other descriptor (counted in
//     Stats.HandlerPanics). A death the recover cannot catch (a killed
//     goroutine, a panic in reactor internals) is final: every connection
//     closes with ErrPollCrash, the listeners close, Stats.LoopCrashes
//     counts it, and Post returns ErrClosed from then on;
//   - Drain is the graceful half of Stop: accepting stops, spilled writes
//     flush through the usual writability edges, idle connections close,
//     and a deadline force-closes stragglers before the loop exits.
//
// Platforms without a poller (anything but linux/darwin) compile against
// the same API; New returns ErrUnsupported and callers fall back to the
// portable goroutine-per-connection transport (netloop's default).
package reactor

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gid"
	"repro/internal/sanitize"
	"repro/internal/trace"
)

// ErrUnsupported is returned by New on platforms without an epoll/kqueue
// poller. Gate reactor use on Supported.
var ErrUnsupported = errors.New("reactor: no poller on this platform")

// ErrClosed is returned by operations on a stopped reactor.
var ErrClosed = errors.New("reactor: stopped")

// ErrConnClosed is returned by writes to a closed connection.
var ErrConnClosed = errors.New("reactor: connection closed")

// ErrDeadline is the base error of every deadline close; match it with
// errors.Is to treat both kinds alike.
var ErrDeadline = errors.New("reactor: deadline exceeded")

var (
	// ErrIdleTimeout closes a connection with no read or successful write
	// activity for its idle deadline (the slowloris reaper).
	ErrIdleTimeout = fmt.Errorf("%w: idle timeout", ErrDeadline)
	// ErrWriteStall closes a connection whose spilled writes had not
	// flushed by Drain's deadline (the peer stopped reading).
	ErrWriteStall = fmt.Errorf("%w: write stalled", ErrDeadline)
)

// ErrPollCrash is the OnClose error of connections orphaned by a poll-
// goroutine death (an unrecovered panic or a killed goroutine).
var ErrPollCrash = errors.New("reactor: poll loop crashed")

// HandlerPanicError is the OnClose error of a connection whose handler
// panicked: the panic was contained, the connection was closed, the loop
// survived.
type HandlerPanicError struct {
	Value any // the recovered panic value
}

// Error formats the contained panic.
func (e *HandlerPanicError) Error() string {
	return fmt.Sprintf("reactor: handler panic: %v", e.Value)
}

// HandlerFuncs are one connection's readiness callbacks. Every callback
// runs on the poll goroutine — the reactor's EDT-confined context: never
// block in one (ompvet's blockguard pass enforces this); offload to a
// worker target and hop back with Reactor.Post instead.
type HandlerFuncs struct {
	// OnReadable delivers freshly read bytes. data is only valid for the
	// duration of the call (it aliases the shared scratch buffer); copy
	// what must outlive it.
	OnReadable func(c *Conn, data []byte)
	// OnDrained fires when a previously spilled write queue empties — the
	// moment backpressure released.
	OnDrained func(c *Conn)
	// OnClose fires exactly once when the connection leaves the reactor:
	// peer EOF (err == io.EOF), a socket error, Conn.Close, or reactor
	// shutdown (err == ErrClosed).
	OnClose func(c *Conn, err error)
}

// Interceptor sits between a readiness event and its handler
// (chaos.NetInterceptor plugs in here). It may replace the dispatch (Delay)
// or suppress it (keep=false; with edge-triggered registration a dropped read
// edge stalls the connection until more bytes arrive — exactly the fault being
// modelled).
type Interceptor func(event string, fn func()) (func(), bool)

// Stats is a snapshot of the reactor's counters.
type Stats struct {
	Conns         int   // currently registered connections
	Accepted      int64 // connections accepted by listeners
	Dialed        int64 // connections established by Dial
	ReadEvents    int64 // readability edges dispatched
	WriteEvents   int64 // writability edges dispatched
	BytesRead     int64
	BytesWritten  int64
	PartialWrites int64 // writes that spilled into a pending queue
	Posts         int64 // cross-thread Post functions run
	Wakeups       int64 // wakeup-pipe interrupts of the poll wait
	Dropped       int64 // events suppressed by the interceptor

	// Survivability counters.
	HandlerPanics  int64 // panics contained around handler dispatch
	DeadlineCloses int64 // connections reaped by idle deadlines
	LoopCrashes    int64 // poll-goroutine deaths (at most one: a death is final)
	ForceCloses    int64 // stragglers closed at a drain deadline
}

// Reactor is an edge-triggered readiness dispatcher. Create with New,
// tear down with Stop.
type Reactor struct {
	name     string
	registry *gid.Registry
	p        poller
	// san stamps the poll goroutine as this reactor's home context (bound
	// in run); the poll-confined paths — read drains, timer fires,
	// connection teardown — assert affinity against it under -tags=ompsan.
	// No-op untagged.
	san sanitize.Home

	mu        sync.Mutex
	conns     map[int]*Conn
	listeners map[int]*listener
	posted    []func()
	closed    bool
	draining  bool

	wakePending   atomic.Bool
	interceptor   atomic.Pointer[Interceptor]
	ioInterceptor atomic.Pointer[IOInterceptor]

	accepted      atomic.Int64
	dialed        atomic.Int64
	readEvents    atomic.Int64
	writeEvents   atomic.Int64
	bytesRead     atomic.Int64
	bytesWritten  atomic.Int64
	partialWrites atomic.Int64
	posts         atomic.Int64
	wakeups       atomic.Int64
	dropped       atomic.Int64

	handlerPanics  atomic.Int64
	deadlineCloses atomic.Int64
	loopCrashes    atomic.Int64
	forceCloses    atomic.Int64

	readBuf  []byte // poll-goroutine-only scratch
	events   []pollEvent
	targets  []batchTarget // poll-goroutine-only scratch (see pollLoop)
	timers   timerHeap     // poll-goroutine-only (timer.go)
	timerSeq uint64        // poll-goroutine-only
	wg       sync.WaitGroup
	ready    chan struct{}
}

// batchTarget pins one readiness event to the registration it was
// generated for, resolved before any event in the batch is dispatched.
type batchTarget struct {
	ln *listener
	c  *Conn
}

type listener struct {
	fd       int
	onAccept func(*Conn) HandlerFuncs
}

// New creates a reactor named name whose poll goroutine registers itself
// in reg (nil means gid.Default) and starts it. On platforms without a
// poller it returns ErrUnsupported.
func New(name string, reg *gid.Registry) (*Reactor, error) {
	if reg == nil {
		reg = &gid.Default
	}
	p, err := newPoller()
	if err != nil {
		return nil, err
	}
	r := &Reactor{
		name:      name,
		registry:  reg,
		p:         p,
		conns:     make(map[int]*Conn),
		listeners: make(map[int]*listener),
		readBuf:   make([]byte, 64<<10),
		events:    make([]pollEvent, 256),
		ready:     make(chan struct{}),
	}
	r.wg.Add(1)
	go r.run()
	<-r.ready
	return r, nil
}

// Name returns the reactor's virtual-target name.
func (r *Reactor) Name() string { return r.name }

// Owns reports whether the calling goroutine is the poll goroutine.
func (r *Reactor) Owns() bool { return r.registry.IsOwnedBy(r) }

// SetInterceptor installs (or, with nil, removes) the readiness
// interceptor — the chaos seam.
func (r *Reactor) SetInterceptor(fn Interceptor) {
	if fn == nil {
		r.interceptor.Store(nil)
		return
	}
	r.interceptor.Store(&fn)
}

// Stats returns a snapshot of the reactor's counters.
func (r *Reactor) Stats() Stats {
	r.mu.Lock()
	conns := len(r.conns)
	r.mu.Unlock()
	return Stats{
		Conns:         conns,
		Accepted:      r.accepted.Load(),
		Dialed:        r.dialed.Load(),
		ReadEvents:    r.readEvents.Load(),
		WriteEvents:   r.writeEvents.Load(),
		BytesRead:     r.bytesRead.Load(),
		BytesWritten:  r.bytesWritten.Load(),
		PartialWrites: r.partialWrites.Load(),
		Posts:         r.posts.Load(),
		Wakeups:       r.wakeups.Load(),
		Dropped:       r.dropped.Load(),

		HandlerPanics:  r.handlerPanics.Load(),
		DeadlineCloses: r.deadlineCloses.Load(),
		LoopCrashes:    r.loopCrashes.Load(),
		ForceCloses:    r.forceCloses.Load(),
	}
}

// contain runs fn with panic containment: a panic is recovered, counted,
// and — when the fault belongs to a connection — answered by closing that
// connection with a HandlerPanicError. The poll loop itself keeps running.
// Poll-goroutine only.
func (r *Reactor) contain(c *Conn, fn func()) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		r.handlerPanics.Add(1)
		if c != nil && !c.dead() {
			r.closeConn(c, &HandlerPanicError{Value: v})
		}
	}()
	fn()
}

// Post runs fn on the poll goroutine — the cross-thread ingress. Returns
// ErrClosed after Stop. Posts from the poll goroutine itself are also
// queued (they run after the current event batch), preserving FIFO order
// with posts from other goroutines.
func (r *Reactor) Post(fn func()) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	r.posted = append(r.posted, fn)
	r.mu.Unlock()
	r.wake()
	return nil
}

// wake interrupts the poll wait once; coalesces with pending wakeups.
func (r *Reactor) wake() {
	if r.wakePending.CompareAndSwap(false, true) {
		r.p.wake()
	}
}

// Listen binds a listening socket on addr ("127.0.0.1:0" for an ephemeral
// port), registers it, and returns the bound address. Each accepted
// connection is wrapped in a Conn and onAccept (poll goroutine) returns
// its callbacks.
func (r *Reactor) Listen(addr string, onAccept func(*Conn) HandlerFuncs) (string, error) {
	fd, bound, err := sysListen(addr)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	if r.closed || r.draining {
		r.mu.Unlock()
		sysClose(fd)
		return "", ErrClosed
	}
	r.listeners[fd] = &listener{fd: fd, onAccept: onAccept}
	r.mu.Unlock()
	if err := r.p.add(fd, false); err != nil {
		r.mu.Lock()
		delete(r.listeners, fd)
		r.mu.Unlock()
		sysClose(fd)
		return "", fmt.Errorf("reactor: register listener: %w", err)
	}
	return bound, nil
}

// Dial connects to addr (blocking connect, then non-blocking registration)
// and registers the connection with h.
func (r *Reactor) Dial(addr string, h HandlerFuncs) (*Conn, error) {
	fd, err := sysDial(addr)
	if err != nil {
		return nil, err
	}
	c, err := r.register(fd, h)
	if err != nil {
		sysClose(fd)
		return nil, err
	}
	r.dialed.Add(1)
	return c, nil
}

// register places a dialled socket under the reactor, which owns it from
// here on: it is closed when the connection leaves the reactor.
func (r *Reactor) register(fd int, h HandlerFuncs) (*Conn, error) {
	if err := sysSetNonblock(fd); err != nil {
		return nil, fmt.Errorf("reactor: set nonblocking: %w", err)
	}
	c := &Conn{r: r, fd: fd, h: h}
	r.mu.Lock()
	if r.closed || r.draining {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	r.conns[fd] = c
	r.mu.Unlock()
	if err := r.p.add(fd, false); err != nil {
		r.mu.Lock()
		delete(r.conns, fd)
		r.mu.Unlock()
		return nil, fmt.Errorf("reactor: register fd %d: %w", fd, err)
	}
	return c, nil
}

// run is the poll loop: wait for readiness, dispatch edges, drain posts.
// The poller is closed here, on the way out, so Stop never has to touch it
// while the loop might still be waiting on it.
//
// Handler panics never reach this frame (contain recovers them at each
// dispatch point), so anything that does — a panic in reactor internals,
// or a goroutine kill, which runs deferred functions without a panic value
// — is a loop death: crashCleanup fails every connection with ErrPollCrash,
// and the reactor stays down.
func (r *Reactor) run() {
	cleanExit := false
	defer func() {
		if recover() != nil || !cleanExit {
			r.crashCleanup()
		}
		r.p.close()
		r.san.Unbind()
		r.registry.Deregister()
		r.wg.Done()
	}()
	r.registry.Register(r)
	r.san.Bind("reactor", r.name)
	close(r.ready)
	pprof.Do(context.Background(), pprof.Labels("target", r.name), func(context.Context) {
		r.pollLoop()
	})
	cleanExit = true
}

// crashCleanup tears the reactor down for good after a poll-goroutine
// death: mark closed (Post returns ErrClosed from here on), drop queued
// posts, close the listeners, and fail every connection with ErrPollCrash.
// Runs on the dying goroutine (inside its deferred frame), so the
// poll-confined teardown invariants still hold.
func (r *Reactor) crashCleanup() {
	r.loopCrashes.Add(1)
	r.mu.Lock()
	r.closed = true
	r.posted = nil
	lns := make([]*listener, 0, len(r.listeners))
	for _, ln := range r.listeners {
		lns = append(lns, ln)
	}
	r.listeners = map[int]*listener{}
	conns := make([]*Conn, 0, len(r.conns))
	for _, c := range r.conns {
		conns = append(conns, c)
	}
	r.mu.Unlock()
	for _, ln := range lns {
		r.p.del(ln.fd)
		sysClose(ln.fd)
	}
	for _, c := range conns {
		r.closeConn(c, ErrPollCrash)
	}
}

func (r *Reactor) pollLoop() {
	for {
		n, woken, err := r.p.wait(r.events, r.nextTimerMs())
		if err != nil {
			return // poller closed: Stop tore us down
		}
		if woken {
			r.wakeups.Add(1)
			r.wakePending.Store(false)
			if !r.drainPosted() {
				return
			}
		}
		r.fireTimers()
		// Resolve the whole batch to its targets before dispatching any
		// event: a handler may close a connection mid-batch and another
		// goroutine may reuse its fd number via Dial before later
		// events in the same batch dispatch. Looking conns up lazily would
		// deliver those stale events to the fresh connection (a stale hup
		// would even close it); resolving up front pins each event to the
		// registration that existed when the kernel reported it, and the
		// dead() check in dispatchEvent drops events whose connection
		// closed earlier in the batch.
		if cap(r.targets) < n {
			r.targets = make([]batchTarget, n)
		}
		targets := r.targets[:n]
		r.mu.Lock()
		for i := 0; i < n; i++ {
			targets[i] = batchTarget{ln: r.listeners[r.events[i].fd], c: r.conns[r.events[i].fd]}
		}
		r.mu.Unlock()
		for i := 0; i < n; i++ {
			r.dispatchEvent(targets[i], &r.events[i])
			targets[i] = batchTarget{} // release refs between batches
		}
	}
}

// drainPosted runs the queued cross-thread posts; reports false when the
// reactor is stopping (the poll goroutine must exit).
func (r *Reactor) drainPosted() bool {
	r.mu.Lock()
	fns := r.posted
	r.posted = nil
	closed := r.closed
	r.mu.Unlock()
	for _, fn := range fns {
		r.posts.Add(1)
		r.contain(nil, fn)
	}
	return !closed
}

// dispatchEvent handles one readiness event on the poll goroutine. The
// target was resolved at batch start; a connection closed by an earlier
// event in the batch is dropped here instead of reaching its (dead)
// handlers or a reused fd's new owner.
func (r *Reactor) dispatchEvent(t batchTarget, ev *pollEvent) {
	switch {
	case t.ln != nil:
		r.acceptDrain(t.ln)
	case t.c != nil && !t.c.dead():
		r.connEvent(t.c, ev)
	}
}

// acceptDrain accepts until EAGAIN (edge semantics on the listen socket).
func (r *Reactor) acceptDrain(ln *listener) {
	for {
		fd, err := sysAccept(ln.fd)
		if err != nil {
			return // EAGAIN, or listener closed underneath us
		}
		c := &Conn{r: r, fd: fd}
		r.mu.Lock()
		if r.closed || r.draining {
			r.mu.Unlock()
			sysClose(fd)
			return
		}
		r.conns[fd] = c
		r.mu.Unlock()
		// Registered before onAccept can hand c to another goroutine: a Write
		// from there that has to arm writability needs the fd in the poller.
		// No event reaches c before its handlers are set — they are
		// dispatched by this goroutine, after this batch.
		if err := r.p.add(fd, false); err != nil {
			r.closeConn(c, err)
			continue
		}
		r.contain(c, func() { c.h = ln.onAccept(c) })
		if c.dead() {
			continue // onAccept panicked; contain already closed the conn
		}
		r.accepted.Add(1)
	}
}

// connEvent dispatches one connection's readiness, bracketed by the chaos
// interceptor and, when tracing is on, a "ready" span that the handler's
// downstream posts parent to (readiness → dispatch → handler causality).
// The dispatch runs contained: a panic — the handler's or an injected one —
// closes this connection and leaves the loop serving.
func (r *Reactor) connEvent(c *Conn, ev *pollEvent) {
	// Only an installed interceptor is handed the dispatch as a closure (one
	// that escapes, so it is allocated); without one, wrapped stays nil and
	// a readiness event allocates nothing.
	var wrapped func()
	if p := r.interceptor.Load(); p != nil {
		var keep bool
		if wrapped, keep = (*p)("ready", func() { r.connReady(c, ev) }); !keep {
			r.dropped.Add(1)
			return
		}
	}
	sc := trace.Open(trace.ActiveSink(), "ready", r.name)
	r.contain(c, func() {
		if wrapped != nil {
			wrapped()
			return
		}
		r.connReady(c, ev)
	})
	sc.Close()
}

func (r *Reactor) connReady(c *Conn, ev *pollEvent) {
	if ev.writable {
		r.writeEvents.Add(1)
		c.flush()
	}
	if ev.readable {
		r.readEvents.Add(1)
		r.readDrain(c)
	}
	if ev.hup && !c.dead() {
		// Peer hung up and no data pending: epoll reported RDHUP/HUP
		// without readable bytes (or the read drain already consumed
		// them). A read would return 0 now; close eagerly.
		r.closeConn(c, io.EOF)
	}
}

// readDrain reads until a read returns less than it asked the kernel for,
// or until EAGAIN or EOF. Stopping at the short read keeps the
// edge-triggered contract — epoll(7) sanctions it for stream sockets, which
// every connection is — and saves the read(2) that could only have said
// EAGAIN. Later bytes raise a fresh edge.
func (r *Reactor) readDrain(c *Conn) {
	r.san.Check("readDrain on", r.name)
	for !c.dead() {
		n, asked, err := r.ioRead(c.fd, r.readBuf)
		switch {
		case n > 0:
			r.bytesRead.Add(int64(n))
			c.noteActivity()
			if c.h.OnReadable != nil {
				c.h.OnReadable(c, r.readBuf[:n])
			}
			if n < asked {
				return
			}
		case err == nil:
			// n == 0: EOF.
			r.closeConn(c, io.EOF)
			return
		case isWouldBlock(err):
			return
		case isEINTR(err):
			continue
		default:
			r.closeConn(c, err)
			return
		}
	}
}

// closeConn removes c from the reactor, closes the descriptor, and fires
// OnClose exactly once. Poll-goroutine only. The descriptor is closed
// under the write mutex so a concurrent Conn.Write can never issue a
// syscall on a closed (and possibly kernel-recycled) fd number.
func (r *Reactor) closeConn(c *Conn, err error) {
	r.san.Check("closeConn on", r.name)
	if !c.closeState.CompareAndSwap(0, 1) {
		return
	}
	r.mu.Lock()
	delete(r.conns, c.fd)
	lastOut := r.draining && !r.closed && len(r.conns) == 0
	r.mu.Unlock()
	r.p.del(c.fd)
	c.wmu.Lock()
	c.closing = true
	c.pending = nil
	c.pendingLen = 0
	sysClose(c.fd)
	c.wmu.Unlock()
	if c.h.OnClose != nil {
		// OnClose is contained on its own: the connection is already gone,
		// so a panicking close callback is counted and recovered without
		// re-entering closeConn.
		func() {
			defer func() {
				if recover() != nil {
					r.handlerPanics.Add(1)
				}
			}()
			c.h.OnClose(c, err)
		}()
	}
	if lastOut {
		// Drain complete: the last connection left and no force-close was
		// needed. Stop schedules the final teardown post and returns (we
		// are on the poll goroutine).
		r.Stop()
	}
}

// Stop closes every listener and connection (firing their OnClose with
// ErrClosed on the poll goroutine), rejects further posts, and joins the
// poll goroutine. Safe to call more than once; concurrent callers wait
// for the teardown to finish. Callable from a handler callback or Post fn
// on the poll goroutine itself: in that case Stop cannot join the loop it
// is running on, so it returns once the teardown is scheduled — the loop
// exits after the current batch drains.
func (r *Reactor) Stop() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		if !r.Owns() {
			r.wg.Wait()
		}
		return
	}
	r.closed = true
	// Final post: runs on the poll goroutine after the queue drains, closes
	// everything while still confined, then drainPosted sees closed and the
	// loop exits.
	r.posted = append(r.posted, func() {
		r.mu.Lock()
		lns := make([]*listener, 0, len(r.listeners))
		for _, ln := range r.listeners {
			lns = append(lns, ln)
		}
		conns := make([]*Conn, 0, len(r.conns))
		for _, c := range r.conns {
			conns = append(conns, c)
		}
		r.listeners = map[int]*listener{}
		r.mu.Unlock()
		for _, ln := range lns {
			r.p.del(ln.fd)
			sysClose(ln.fd)
		}
		for _, c := range conns {
			r.closeConn(c, ErrClosed)
		}
	})
	r.mu.Unlock()
	r.wake()
	if r.Owns() {
		return // joining our own goroutine would deadlock; see doc comment
	}
	r.wg.Wait()
}

// Drain is the graceful Stop: accepting stops immediately, every
// connection is closed through the flush-before-close path (spilled writes
// go out on their writability edges, OnDrained fires as usual), and
// connections that still have not flushed when the deadline d expires are
// force-closed (counted by ForceCloses). Drain returns once the reactor
// has fully stopped. Calling it from a poll-goroutine callback returns
// after the drain is scheduled, like Stop. Draining an already-stopped
// reactor just waits for the teardown.
func (r *Reactor) Drain(d time.Duration) {
	deadline := time.Now().Add(d)
	if r.Owns() {
		r.beginDrain(deadline)
		return
	}
	_ = r.Post(func() { r.beginDrain(deadline) })
	r.wg.Wait()
}

// beginDrain starts the drain on the poll goroutine.
func (r *Reactor) beginDrain(deadline time.Time) {
	r.mu.Lock()
	if r.draining || r.closed {
		r.mu.Unlock()
		return
	}
	r.draining = true
	lns := make([]*listener, 0, len(r.listeners))
	for _, ln := range r.listeners {
		lns = append(lns, ln)
	}
	r.listeners = map[int]*listener{}
	conns := make([]*Conn, 0, len(r.conns))
	for _, c := range r.conns {
		conns = append(conns, c)
	}
	r.mu.Unlock()
	for _, ln := range lns {
		r.p.del(ln.fd)
		sysClose(ln.fd)
	}
	if len(conns) == 0 {
		r.Stop()
		return
	}
	for _, c := range conns {
		// Flush-before-close: connections with no pending writes close
		// now (closeConn sees the drain finish); the rest close from
		// flush() once their queues empty.
		c.Close()
	}
	r.addTimer(deadline, func() {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return
		}
		rem := make([]*Conn, 0, len(r.conns))
		for _, c := range r.conns {
			rem = append(rem, c)
		}
		r.mu.Unlock()
		for _, c := range rem {
			r.forceCloses.Add(1)
			r.closeConn(c, ErrWriteStall)
		}
		r.Stop()
	})
}

// Conn is one registered descriptor: a virtual target bound to an FD. Its
// HandlerFuncs run confined to the poll goroutine; Write and Close are
// safe from any goroutine.
type Conn struct {
	r  *Reactor
	fd int
	h  HandlerFuncs

	ctx atomic.Value // user attachment

	wmu        sync.Mutex
	pending    [][]byte // spilled writes, drained on writability edges
	pendingLen int
	wantWrite  bool // fd registered for writability edges
	closing    bool // Close requested; finish pending writes first

	closeState atomic.Int32 // 0 open, 1 closed

	// Idle-deadline state. The duration and instant are atomics so the
	// arming method and the hot read/write paths stay lock-free; the
	// deadline timer itself is poll-confined (see deadlineCheck).
	idleDur atomic.Int64 // idle deadline (ns); 0 disabled
	lastAct atomic.Int64 // unixnano of last read/write activity
	dlArmed atomic.Bool  // a deadline timer is scheduled on the poll goroutine
}

// RemoteAddr returns the peer address ("" once the connection is closed).
func (c *Conn) RemoteAddr() string {
	if c.dead() {
		return ""
	}
	return sysPeerAddr(c.fd)
}

// SetContext attaches an arbitrary per-connection value (the netloop
// Client, a session, ...).
func (c *Conn) SetContext(v any) { c.ctx.Store(v) }

// Context returns the attached value (nil if none).
func (c *Conn) Context() any { return c.ctx.Load() }

func (c *Conn) dead() bool { return c.closeState.Load() != 0 }

// SetIdleDeadline arms (or, with d <= 0, disarms) the idle reaper: the
// connection is closed with ErrIdleTimeout if neither a read nor a
// successful write happens for d. Writes count as activity so a passive
// receiver (a chat-room member who only gets broadcasts) is not reaped
// while traffic still flows to it; a slowloris peer that neither sends
// nor accepts bytes is. Safe from any goroutine.
func (c *Conn) SetIdleDeadline(d time.Duration) {
	if d <= 0 {
		c.idleDur.Store(0)
		return
	}
	c.lastAct.Store(time.Now().UnixNano())
	c.idleDur.Store(int64(d))
	c.armDeadline()
}

// noteActivity records a read or a successful write for the idle deadline.
func (c *Conn) noteActivity() {
	if c.idleDur.Load() != 0 {
		c.lastAct.Store(time.Now().UnixNano())
	}
}

// armDeadline ensures a deadline-check timer is scheduled on the poll
// goroutine. Coalesced: while one is armed, arming again is a no-op, and
// deadlineCheck re-arms itself for as long as the deadline stays armed.
// Safe from any goroutine.
func (c *Conn) armDeadline() {
	if c.dlArmed.Load() || c.dead() {
		return
	}
	if c.r.Owns() {
		c.armDeadlineOnLoop()
		return
	}
	_ = c.r.Post(c.armDeadlineOnLoop)
}

// armDeadlineOnLoop schedules the check timer once. Poll-goroutine only.
func (c *Conn) armDeadlineOnLoop() {
	if c.dead() || c.dlArmed.Swap(true) {
		return
	}
	when, ok := c.nextDeadline()
	if !ok {
		c.dlArmed.Store(false)
		return
	}
	c.r.addTimer(when, c.deadlineCheck)
}

// nextDeadline returns the instant the idle deadline fires (which may be in
// the past — the check closes then), and false when it is disarmed.
func (c *Conn) nextDeadline() (time.Time, bool) {
	d := c.idleDur.Load()
	if d <= 0 {
		return time.Time{}, false
	}
	return time.Unix(0, c.lastAct.Load()+d), true
}

// deadlineCheck enforces the idle deadline: an expired one closes the
// connection with ErrIdleTimeout (counted and traced as OpConnDeadline);
// otherwise the timer re-arms for the next instant it could fire.
// Poll-goroutine only.
func (c *Conn) deadlineCheck() {
	if c.dead() {
		c.dlArmed.Store(false)
		return
	}
	if when, ok := c.nextDeadline(); ok {
		now := time.Now()
		if now.Before(when) {
			c.r.addTimer(when, c.deadlineCheck) // dlArmed stays true
			return
		}
		c.r.deadlineCloses.Add(1)
		if sink := trace.ActiveSink(); sink != nil {
			sink.Record(trace.Event{Time: now, Op: trace.OpConnDeadline, Target: c.r.name})
		}
		c.r.closeConn(c, ErrIdleTimeout)
		c.dlArmed.Store(false)
		return
	}
	// Disarmed: release the timer, then re-check for an arming that raced
	// the release (a SetIdleDeadline just as we let go) — without this, that
	// arm request could read dlArmed == true and be dropped.
	c.dlArmed.Store(false)
	if when, ok := c.nextDeadline(); ok && !c.dlArmed.Swap(true) {
		c.r.addTimer(when, c.deadlineCheck)
	}
}

// Write sends p: straight to the socket while the kernel buffer accepts
// it, with any remainder copied into the pending queue and flushed on
// writability edges. It never blocks. Safe from any goroutine.
func (c *Conn) Write(p []byte) error {
	if c.dead() {
		return ErrConnClosed
	}
	c.wmu.Lock()
	if c.closing {
		c.wmu.Unlock()
		return ErrConnClosed
	}
	if len(c.pending) == 0 {
		for len(p) > 0 {
			n, err := c.r.ioWrite(c.fd, p)
			if n > 0 {
				c.r.bytesWritten.Add(int64(n))
				c.noteActivity()
				p = p[n:]
				continue
			}
			if isWouldBlock(err) {
				break
			}
			if isEINTR(err) {
				continue
			}
			// Write error: the read side will surface it as a readiness
			// event and close; report it to the caller too.
			c.wmu.Unlock()
			return fmt.Errorf("reactor: write fd %d: %w", c.fd, err)
		}
		if len(p) == 0 {
			c.wmu.Unlock()
			return nil
		}
	}
	// Spill: own a copy, ask for writability edges. Arming happens under
	// wmu so it serializes with flush's disarm — an arm can never be
	// overwritten by a disarm decided against stale pending state.
	buf := make([]byte, len(p))
	copy(buf, p)
	c.pending = append(c.pending, buf)
	c.pendingLen += len(buf)
	c.r.partialWrites.Add(1)
	var armErr error
	if !c.wantWrite {
		if armErr = c.r.p.mod(c.fd, true); armErr != nil {
			// The spilled bytes would never flush: fail the write and tear
			// the connection down instead of stalling it silently.
			armErr = fmt.Errorf("reactor: arm write fd %d: %w", c.fd, armErr)
			c.closing = true
			c.pending = nil
			c.pendingLen = 0
		} else {
			c.wantWrite = true
		}
	}
	c.wmu.Unlock()
	if armErr != nil {
		c.closeFromAnywhere(armErr)
	}
	return armErr
}

// closeFromAnywhere routes a teardown onto the poll goroutine (OnClose is
// confined there): directly when already on it, via Post otherwise. A
// Post rejection means the reactor is stopping and will close every
// connection itself.
func (c *Conn) closeFromAnywhere(err error) {
	if c.r.Owns() {
		c.r.closeConn(c, err)
		return
	}
	_ = c.r.Post(func() { c.r.closeConn(c, err) })
}

// flush drains the pending queue on a writability edge (poll goroutine).
func (c *Conn) flush() {
	c.wmu.Lock()
	for len(c.pending) > 0 {
		buf := c.pending[0]
		n, err := c.r.ioWrite(c.fd, buf)
		if n > 0 {
			c.r.bytesWritten.Add(int64(n))
			c.noteActivity()
			c.pendingLen -= n
			if n < len(buf) {
				c.pending[0] = buf[n:]
				continue
			}
			c.pending[0] = nil
			c.pending = c.pending[1:]
			continue
		}
		if isWouldBlock(err) {
			c.wmu.Unlock()
			return
		}
		if isEINTR(err) {
			continue
		}
		c.wmu.Unlock()
		c.r.closeConn(c, fmt.Errorf("reactor: flush fd %d: %w", c.fd, err))
		return
	}
	c.pending = nil
	drained := c.wantWrite
	var disarmErr error
	if drained {
		// Disarm while still holding wmu: a concurrent Write that spills
		// new data serializes behind this mod, sees wantWrite == false,
		// and re-arms — disarming after unlocking could clobber that arm
		// and stall the connection's queued writes forever.
		c.wantWrite = false
		disarmErr = c.r.p.mod(c.fd, false)
	}
	closing := c.closing
	c.wmu.Unlock()
	if disarmErr != nil {
		c.r.closeConn(c, fmt.Errorf("reactor: disarm write fd %d: %w", c.fd, disarmErr))
		return
	}
	if drained && c.h.OnDrained != nil && !c.dead() {
		c.h.OnDrained(c)
	}
	if closing {
		c.r.closeConn(c, ErrConnClosed)
	}
}

// Close disconnects: pending writes are flushed first, then the
// descriptor is closed and OnClose fires (with ErrConnClosed). Safe from
// any goroutine; returns after the close has been scheduled, not
// necessarily performed.
func (c *Conn) Close() error {
	c.wmu.Lock()
	if c.closing {
		c.wmu.Unlock()
		return nil
	}
	c.closing = true
	hasPending := len(c.pending) > 0
	c.wmu.Unlock()
	if hasPending {
		return nil // flush() fires the close once the queue drains
	}
	if c.r.Owns() {
		c.r.closeConn(c, ErrConnClosed)
		return nil
	}
	err := c.r.Post(func() { c.r.closeConn(c, ErrConnClosed) })
	if errors.Is(err, ErrClosed) {
		// Reactor stopping: its final post closes every conn.
		return nil
	}
	return err
}
