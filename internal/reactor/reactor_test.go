package reactor

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gid"
	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
	"repro/internal/trace"
)

// newTestReactor skips on platforms without a poller and tears the
// reactor down with the test.
func newTestReactor(t *testing.T, name string) *Reactor {
	t.Helper()
	if !Supported {
		t.Skip("no reactor poller on this platform")
	}
	r, err := New(name, &gid.Registry{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// collector accumulates received bytes and close notifications.
type collector struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	closed int
	err    error
}

func (cl *collector) handlers() HandlerFuncs {
	return HandlerFuncs{
		OnReadable: func(c *Conn, data []byte) {
			cl.mu.Lock()
			cl.buf.Write(data)
			cl.mu.Unlock()
		},
		OnClose: func(c *Conn, err error) {
			cl.mu.Lock()
			cl.closed++
			cl.err = err
			cl.mu.Unlock()
		},
	}
}

func (cl *collector) String() string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.buf.String()
}

func (cl *collector) closeCount() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.closed
}

func (cl *collector) closeErr() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.err
}

// TestEchoRoundTrip proves the full path: listen, accept, edge-drain read,
// write back, client-side readiness delivery.
func TestEchoRoundTrip(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "echo")
	defer r.Stop()
	addr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		return HandlerFuncs{
			OnReadable: func(c *Conn, data []byte) {
				if !r.Owns() {
					t.Error("OnReadable off the poll goroutine")
				}
				c.Write(data) // echo
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var got collector
	c, err := r.Dial(addr, got.handlers())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write([]byte("hello reactor\n")); err != nil {
		t.Fatal(err)
	}
	poll.Until(t, "echo round trip", func() bool { return got.String() == "hello reactor\n" })
	st := r.Stats()
	if st.Accepted != 1 || st.Dialed != 1 {
		t.Fatalf("Accepted=%d Dialed=%d, want 1/1", st.Accepted, st.Dialed)
	}
	if st.BytesRead == 0 || st.ReadEvents == 0 {
		t.Fatalf("no read activity recorded: %+v", st)
	}
}

// TestPeerEOFFiresOnCloseOnce: closing the client fires the server conn's
// OnClose exactly once with io.EOF.
func TestPeerEOFFiresOnCloseOnce(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "eof")
	defer r.Stop()
	var srv collector
	accepted := make(chan *Conn, 1)
	addr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		accepted <- c
		return srv.handlers()
	})
	if err != nil {
		t.Fatal(err)
	}
	var cli collector
	c, err := r.Dial(addr, cli.handlers())
	if err != nil {
		t.Fatal(err)
	}
	<-accepted
	c.Close()
	poll.Until(t, "server OnClose", func() bool { return srv.closeCount() == 1 })
	if err := srv.closeErr(); !errors.Is(err, io.EOF) {
		t.Fatalf("server close err = %v, want io.EOF", err)
	}
	poll.Until(t, "client OnClose", func() bool { return cli.closeCount() == 1 })
	if err := cli.closeErr(); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("client close err = %v, want ErrConnClosed", err)
	}
	// Settle, then confirm no double fire.
	time.Sleep(10 * time.Millisecond)
	if srv.closeCount() != 1 || cli.closeCount() != 1 {
		t.Fatalf("OnClose fired %d/%d times, want exactly once each",
			srv.closeCount(), cli.closeCount())
	}
}

// TestStopClosesEverything: reactor Stop fires every OnClose with
// ErrClosed and the poll goroutine exits (leakcheck enforces the join).
func TestStopClosesEverything(t *testing.T) {
	defer leakcheck.Check(t)()
	if !Supported {
		t.Skip("no reactor poller on this platform")
	}
	r, err := New("stop", &gid.Registry{})
	if err != nil {
		t.Fatal(err)
	}
	var srv, cli collector
	addr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs { return srv.handlers() })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Dial(addr, cli.handlers()); err != nil {
		t.Fatal(err)
	}
	poll.Until(t, "conn registered", func() bool { return r.Stats().Accepted == 1 })
	r.Stop()
	if got := cli.closeCount(); got != 1 {
		t.Fatalf("client OnClose fired %d times after Stop, want 1", got)
	}
	if err := cli.closeErr(); !errors.Is(err, ErrClosed) {
		t.Fatalf("close err = %v, want ErrClosed", err)
	}
	if err := r.Post(func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Post after Stop = %v, want ErrClosed", err)
	}
	// Stop again: must not hang or double-fire.
	r.Stop()
	if got := cli.closeCount(); got != 1 {
		t.Fatalf("OnClose fired %d times after double Stop", got)
	}
}

// TestStopFromCallback: Stop invoked on the poll goroutine itself (from a
// readiness handler) cannot join the goroutine it is running on; it must
// schedule the teardown and return instead of deadlocking.
func TestStopFromCallback(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "selfstop")
	stopReturned := make(chan struct{})
	addr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		return HandlerFuncs{
			OnReadable: func(c *Conn, data []byte) {
				r.Stop()
				close(stopReturned)
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var cli collector
	c, err := r.Dial(addr, cli.handlers())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stopReturned:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop called from a poll-goroutine callback deadlocked")
	}
	r.Stop() // from outside the loop: joins the finished teardown
	if got := cli.closeCount(); got != 1 {
		t.Fatalf("client OnClose fired %d times, want 1", got)
	}
	if err := cli.closeErr(); !errors.Is(err, ErrClosed) {
		t.Fatalf("close err = %v, want ErrClosed", err)
	}
}

// TestPostStorm hammers the wakeup pipe from many goroutines at once: every
// posted function must run on the poll goroutine, in submission order per
// producer, without wedging the pipe (writes to a full pipe are coalesced).
func TestPostStorm(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "storm")
	defer r.Stop()
	const producers = 8
	const perProducer = 5000
	var ran atomic.Int64
	var offLoop atomic.Int64
	last := make([]int, producers) // poll-goroutine confined
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 1; i <= perProducer; i++ {
				i := i
				for {
					err := r.Post(func() {
						if !r.Owns() {
							offLoop.Add(1)
						}
						if last[p] >= i {
							offLoop.Add(1) // order violation counts as a failure
						}
						last[p] = i
						ran.Add(1)
					})
					if err == nil {
						break
					}
					t.Errorf("Post: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	poll.Until(t, "all posts ran", func() bool { return ran.Load() == producers*perProducer })
	if offLoop.Load() != 0 {
		t.Fatalf("%d posts ran off the poll goroutine or out of order", offLoop.Load())
	}
	st := r.Stats()
	if st.Posts != producers*perProducer {
		t.Fatalf("Posts = %d, want %d", st.Posts, producers*perProducer)
	}
	if st.Wakeups > st.Posts {
		t.Fatalf("more wakeups (%d) than posts (%d): coalescing broken", st.Wakeups, st.Posts)
	}
}

// TestInterceptorDropAndDelay: the chaos seam suppresses and delays
// readiness dispatches.
func TestInterceptorDropAndDelay(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "chaos")
	defer r.Stop()
	var got collector
	addr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs { return got.handlers() })
	if err != nil {
		t.Fatal(err)
	}
	var drops atomic.Int64
	r.SetInterceptor(func(event string, fn func()) (func(), bool) {
		if event == "ready" && drops.Add(1) == 1 {
			return nil, false // drop the first readiness event
		}
		return fn, true
	})
	c, err := r.Dial(addr, HandlerFuncs{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write([]byte("a")); err != nil {
		t.Fatal(err)
	}
	poll.Until(t, "drop recorded", func() bool { return r.Stats().Dropped == 1 })
	// The dropped edge consumed the event; more bytes raise a new edge and
	// deliver everything (the data was never lost, only the dispatch).
	if err := c.Write([]byte("b")); err != nil {
		t.Fatal(err)
	}
	poll.Until(t, "delivery after drop", func() bool { return got.String() == "ab" })
	r.SetInterceptor(nil)
}

// TestInterceptorFaultsEverySecondReady drives the readiness seam with an
// interceptor installed that (a) drops and (b) panics every second "ready"
// event, one event at a time so the outcome is exact: a dropped edge loses no
// data and no connection, an injected panic costs exactly its own connection,
// and Dropped, HandlerPanics and the connection table say so.
func TestInterceptorFaultsEverySecondReady(t *testing.T) {
	type step struct {
		redial  bool
		write   string
		got     string // everything delivered so far
		dropped int64
		panics  int64
	}
	for _, tc := range []struct {
		name   string
		panics bool
		steps  []step
		conns  int
	}{
		{name: "drop", conns: 1, steps: []step{
			{write: "a", got: "a"},
			{write: "b", got: "a", dropped: 1},
			{write: "c", got: "abc", dropped: 1}, // the next edge delivers the dropped one's bytes
			{write: "d", got: "abc", dropped: 2},
			{write: "e", got: "abcde", dropped: 2},
		}},
		{name: "panic", panics: true, conns: 0, steps: []step{
			{write: "a", got: "a"},
			{write: "b", got: "a", panics: 1}, // closes the connection, "b" with it
			{redial: true, write: "c", got: "ac", panics: 1},
			{write: "d", got: "ac", panics: 2},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			r := newTestReactor(t, "seam")
			defer r.Stop()
			var got collector
			addr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs { return got.handlers() })
			if err != nil {
				t.Fatal(err)
			}
			var ready atomic.Int64
			r.SetInterceptor(func(event string, fn func()) (func(), bool) {
				if event != "ready" || ready.Add(1)%2 != 0 {
					return fn, true
				}
				if tc.panics {
					return func() { panic("injected") }, true
				}
				return nil, false
			})

			// A plain socket, so the only readiness events are the server side's.
			cli, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { cli.Close() }()
			for i, st := range tc.steps {
				if st.redial {
					cli.Close()
					if cli, err = net.Dial("tcp", addr); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := cli.Write([]byte(st.write)); err != nil {
					t.Fatal(err)
				}
				poll.Until(t, fmt.Sprintf("step %d (%q) to settle", i, st.write), func() bool {
					s := r.Stats()
					return got.String() == st.got && s.Dropped == st.dropped && s.HandlerPanics == st.panics
				})
			}
			last := tc.steps[len(tc.steps)-1]
			// OnClose is the last thing a contained panic does, after the
			// counters and the connection table have moved.
			poll.Until(t, "one OnClose per panic and the connection table to settle", func() bool {
				return int64(got.closeCount()) == last.panics && r.Stats().Conns == tc.conns
			})
			if s := r.Stats(); s.LoopCrashes != 0 || s.Dropped != last.dropped || s.HandlerPanics != last.panics {
				t.Errorf("final stats %+v, want Dropped %d, HandlerPanics %d, no loop crash", s, last.dropped, last.panics)
			}
		})
	}
}

// TestTraceReadinessCausality: handler-side work parents to the "ready"
// span of the readiness event that caused it — the readiness→dispatch→
// handler causal chain the span tree must show.
func TestTraceReadinessCausality(t *testing.T) {
	defer leakcheck.Check(t)()
	buf := trace.NewBuffer(1024)
	defer trace.Use(buf)()
	r := newTestReactor(t, "traced")
	defer r.Stop()
	type rec struct {
		span   trace.SpanID
		parent trace.SpanID
	}
	recs := make(chan rec, 16)
	addr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		return HandlerFuncs{
			OnReadable: func(c *Conn, data []byte) {
				// Model the dispatch a framework performs from a readiness
				// callback: begin a child span; it must parent to "ready".
				sink := trace.ActiveSink()
				parent := trace.Current()
				span := trace.BeginSpan(sink, "recv", "traced", parent)
				trace.EndSpan(sink, span, "recv", "traced")
				recs <- rec{span: span, parent: parent}
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Dial(addr, HandlerFuncs{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	var got rec
	select {
	case got = <-recs:
	case <-time.After(5 * time.Second):
		t.Fatal("no readiness dispatch observed")
	}
	if got.parent == 0 {
		t.Fatal("recv span has no parent: readiness span missing")
	}
	// The parent must be a "ready" span on the reactor target.
	foundReady := false
	for _, ev := range buf.Snapshot() {
		if ev.Op == trace.OpSpanBegin && ev.Span == got.parent {
			if ev.Name != "ready" || ev.Target != "traced" {
				t.Fatalf("parent span is %s/%s, want ready/traced", ev.Name, ev.Target)
			}
			foundReady = true
		}
	}
	if !foundReady {
		t.Fatal("ready span not recorded in the trace buffer")
	}
}

// TestShortWritesSplitAcrossEvents: a payload split into many tiny writes
// arrives intact and in order across multiple readiness events.
func TestShortWritesSplitAcrossEvents(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "split")
	defer r.Stop()
	var got collector
	addr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs { return got.handlers() })
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Dial(addr, HandlerFuncs{})
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Repeat("0123456789", 100)
	for i := 0; i < len(want); i += 7 {
		end := i + 7
		if end > len(want) {
			end = len(want)
		}
		if err := c.Write([]byte(want[i:end])); err != nil {
			t.Fatal(err)
		}
		if i%70 == 0 {
			time.Sleep(time.Millisecond) // force separate readiness events
		}
	}
	poll.Until(t, "all fragments arrived", func() bool { return len(got.String()) == len(want) })
	if got.String() != want {
		t.Fatal("fragmented payload reassembled out of order")
	}
	if r.Stats().ReadEvents < 2 {
		t.Fatalf("expected multiple readiness events, got %d", r.Stats().ReadEvents)
	}
}

// TestConnPostHopsBack: a worker goroutine hops back into a connection's
// confined context with Reactor.Post — the function runs on the poll
// goroutine, and a Write from there reaches the peer.
func TestConnPostHopsBack(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "hop")
	defer r.Stop()
	var got collector
	accepted := make(chan *Conn, 1)
	addr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		accepted <- c
		return HandlerFuncs{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Dial(addr, got.handlers()); err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	onLoop := make(chan bool, 1)
	go func() {
		if err := r.Post(func() {
			onLoop <- r.Owns()
			srv.Write([]byte("reply"))
		}); err != nil {
			t.Error(err)
		}
	}()
	select {
	case owned := <-onLoop:
		if !owned {
			t.Fatal("Post ran off the poll goroutine")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Post never ran")
	}
	poll.Until(t, "reply delivered", func() bool { return got.String() == "reply" })
}
