package netloop

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gid"
	"repro/internal/reactor"
	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
	"repro/internal/trace"
)

// newReactorServer creates a server on the reactor transport, skipping on
// platforms without a poller.
func newReactorServer(t *testing.T, name string) *Server {
	t.Helper()
	if !reactor.Supported {
		t.Skip("no reactor poller on this platform")
	}
	s := New(name, &gid.Registry{})
	if err := s.EnableReactor(); err != nil {
		s.Stop()
		t.Fatalf("EnableReactor: %v", err)
	}
	return s
}

func TestReactorEchoMultipleClients(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newReactorServer(t, "recho")
	defer s.Stop()
	var offLoop int
	s.HandleFunc(func(c *Client, line string) {
		if !s.Loop().Owns() {
			offLoop++
		}
		c.Send("echo:" + line)
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if s.Reactor() == nil {
		t.Fatal("Reactor() = nil on the reactor transport")
	}
	const clients, msgs = 8, 20
	var wg sync.WaitGroup
	for u := 0; u < clients; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			conn, sc := dial(t, addr)
			for i := 0; i < msgs; i++ {
				fmt.Fprintf(conn, "c%d-%d\n", u, i)
			}
			for i := 0; i < msgs; i++ {
				if !sc.Scan() {
					t.Errorf("client %d: connection closed after %d replies", u, i)
					return
				}
				if want := fmt.Sprintf("echo:c%d-%d", u, i); sc.Text() != want {
					t.Errorf("client %d reply %d = %q, want %q", u, i, sc.Text(), want)
					return
				}
			}
		}(u)
	}
	wg.Wait()
	if offLoop != 0 {
		t.Fatalf("%d handler invocations off the dispatch loop", offLoop)
	}
	if got := s.Messages(); got != clients*msgs {
		t.Fatalf("Messages = %d, want %d", got, clients*msgs)
	}
	if st := s.Reactor().Stats(); st.Accepted != clients {
		t.Fatalf("reactor Accepted = %d, want %d", st.Accepted, clients)
	}
}

// TestReactorLineSplitAcrossEvents drip-feeds one message byte by byte so
// every fragment arrives in its own readiness event: the framing layer must
// buffer the partial line and deliver it whole, and must handle several
// lines arriving in a single event plus CRLF terminators.
func TestReactorLineSplitAcrossEvents(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newReactorServer(t, "rsplit")
	defer s.Stop()
	got := make(chan string, 16)
	s.HandleFunc(func(c *Client, line string) { got <- line })
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, _ := dial(t, addr)

	// One line, one byte per write, with pauses so the kernel reports each
	// byte as its own edge.
	for _, b := range []byte("dripped") {
		if _, err := conn.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	conn.Write([]byte("\n"))
	if want, g := "dripped", <-got; g != want {
		t.Fatalf("split line = %q, want %q", g, want)
	}

	// Several lines in one write, CRLF-terminated, trailing fragment held
	// back until its newline arrives later.
	conn.Write([]byte("a\r\nbb\ncc"))
	if g := <-got; g != "a" {
		t.Fatalf("crlf line = %q, want %q", g, "a")
	}
	if g := <-got; g != "bb" {
		t.Fatalf("second line = %q, want %q", g, "bb")
	}
	select {
	case g := <-got:
		t.Fatalf("fragment %q delivered before its terminator", g)
	case <-time.After(20 * time.Millisecond):
	}
	conn.Write([]byte("c\n"))
	if g := <-got; g != "ccc" {
		t.Fatalf("reassembled line = %q, want %q", g, "ccc")
	}
}

// closeCounter records OnClose invocations per client id and fails the test
// on any duplicate.
type closeCounter struct {
	mu     sync.Mutex
	counts map[int64]int
	sealed bool // set after Stop returns: any later OnClose is a bug
	late   int
}

func (cc *closeCounter) onClose(c *Client) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.sealed {
		cc.late++
	}
	cc.counts[c.ID()]++
}

func (cc *closeCounter) seal() { cc.mu.Lock(); cc.sealed = true; cc.mu.Unlock() }

func (cc *closeCounter) verify(t *testing.T) {
	t.Helper()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for id, n := range cc.counts {
		if n > 1 {
			t.Fatalf("client %d: OnClose fired %d times", id, n)
		}
	}
	if cc.late != 0 {
		t.Fatalf("%d OnClose callbacks after Stop returned", cc.late)
	}
}

// testCloseDuringStopRace is the -race regression for the Stop vs
// in-flight-read ordering bug: clients disconnect (and handlers call
// Client.Close) while several goroutines race Stop. OnClose must fire at
// most once per client and never after Stop has returned.
func testCloseDuringStopRace(t *testing.T, useReactor bool) {
	defer leakcheck.Check(t)()
	for iter := 0; iter < 20; iter++ {
		s := New("rstop", &gid.Registry{})
		if useReactor {
			if !reactor.Supported {
				t.Skip("no reactor poller on this platform")
			}
			if err := s.EnableReactor(); err != nil {
				t.Fatal(err)
			}
		}
		cc := &closeCounter{counts: make(map[int64]int)}
		s.OnClose(cc.onClose)
		s.HandleFunc(func(c *Client, line string) {
			if line == "bye" {
				c.Close() // server-side close racing the client's writes
			}
		})
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}

		const clients = 8
		var writers sync.WaitGroup
		conns := make([]net.Conn, clients)
		for i := range conns {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			conns[i] = conn
			writers.Add(1)
			go func(i int, conn net.Conn) {
				defer writers.Done()
				for j := 0; j < 50; j++ {
					msg := "spam\n"
					if j == 25 && i%2 == 0 {
						msg = "bye\n" // trigger server-side close mid-stream
					}
					if _, err := conn.Write([]byte(msg)); err != nil {
						return // closed under us: expected
					}
				}
				if i%3 == 0 {
					conn.Close() // client-side close racing Stop
				}
			}(i, conns[i])
		}

		// Several goroutines race Stop; all must block until teardown is done.
		var stops sync.WaitGroup
		for g := 0; g < 3; g++ {
			stops.Add(1)
			go func() { defer stops.Done(); s.Stop() }()
		}
		stops.Wait()
		cc.seal()
		writers.Wait()
		for _, conn := range conns {
			conn.Close()
		}
		cc.verify(t)
	}
}

func TestCloseDuringStopNeverDoubleFiresOnCloseGoroutine(t *testing.T) {
	testCloseDuringStopRace(t, false)
}

func TestCloseDuringStopNeverDoubleFiresOnCloseReactor(t *testing.T) {
	testCloseDuringStopRace(t, true)
}

// TestReactorSpanCausality: on the reactor transport the "recv" span the
// server emits for each message must parent to the reactor's "ready" span —
// the readiness event is the causal root of the message's dispatch.
func TestReactorSpanCausality(t *testing.T) {
	defer leakcheck.Check(t)()
	buf := trace.NewBuffer(4096)
	defer trace.Use(buf)()
	s := newReactorServer(t, "rtrace")
	defer s.Stop()
	done := make(chan struct{}, 1)
	s.HandleFunc(func(c *Client, line string) { done <- struct{}{} })
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, _ := dial(t, addr)
	fmt.Fprintln(conn, "traced message")
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("message never dispatched")
	}

	events := buf.Snapshot()
	begins := make(map[trace.SpanID]trace.Event)
	for _, ev := range events {
		if ev.Op == trace.OpSpanBegin {
			begins[ev.Span] = ev
		}
	}
	found := false
	for _, ev := range events {
		if ev.Op != trace.OpSpanBegin || ev.Name != "recv" || ev.Target != "rtrace" {
			continue
		}
		parent, ok := begins[ev.Parent]
		if !ok {
			t.Fatalf("recv span %d has unknown parent %d", ev.Span, ev.Parent)
		}
		if parent.Name != "ready" || parent.Target != "rtrace/reactor" {
			t.Fatalf("recv parents to %s/%s, want ready/rtrace/reactor", parent.Name, parent.Target)
		}
		found = true
	}
	if !found {
		t.Fatal("no recv span recorded on the reactor transport")
	}
}

// TestReactorOversizedLineDisconnects: an unterminated fragment past
// maxLineLen must disconnect the peer instead of buffering it without
// bound — the cap the default transport's bufio.Scanner already imposes.
func TestReactorOversizedLineDisconnects(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newReactorServer(t, "rcap")
	defer s.Stop()
	got := make(chan string, 4)
	s.HandleFunc(func(c *Client, line string) { got <- line })
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// A long-but-legal line is still delivered whole.
	legal, _ := dial(t, addr)
	line := strings.Repeat("a", 60<<10)
	if _, err := legal.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
	if g := <-got; g != line {
		t.Fatalf("long line mangled: got %d bytes, want %d", len(g), len(line))
	}

	// A fragment past the cap with no terminator gets the connection closed.
	hog, _ := dial(t, addr)
	if _, err := hog.Write(bytes.Repeat([]byte("b"), maxLineLen+(8<<10))); err != nil {
		t.Fatal(err)
	}
	poll.Until(t, "oversized-line client disconnected", func() bool {
		return s.ClientCount() == 1 // only the legal client remains
	})
	select {
	case g := <-got:
		t.Fatalf("unterminated oversized fragment delivered as line (%d bytes)", len(g))
	default:
	}
}
