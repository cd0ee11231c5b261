package netloop

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/gid"
	"repro/internal/reactor"
	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
)

// eachTransport runs fn as a subtest on the default (goroutine-per-conn)
// transport and on the reactor transport, so the survivability surface —
// idle deadlines, admission caps, graceful drain — is pinned to identical
// behaviour on both.
func eachTransport(t *testing.T, fn func(t *testing.T, s *Server)) {
	t.Run("default", func(t *testing.T) {
		defer leakcheck.Check(t)()
		fn(t, New("srv", &gid.Registry{}))
	})
	t.Run("reactor", func(t *testing.T) {
		if !reactor.Supported {
			t.Skip("no reactor poller on this platform")
		}
		defer leakcheck.Check(t)()
		s := New("srv", &gid.Registry{})
		if err := s.EnableReactor(); err != nil {
			s.Stop()
			t.Fatalf("EnableReactor: %v", err)
		}
		fn(t, s)
	})
}

// TestIdleDeadlineDisconnectsSilentClient: on both transports a client
// that stops sending is disconnected after the idle deadline and counted,
// while a client that keeps talking is not.
func TestIdleDeadlineDisconnectsSilentClient(t *testing.T) {
	eachTransport(t, func(t *testing.T, s *Server) {
		defer s.Stop()
		s.SetIdleDeadline(80 * time.Millisecond)
		s.HandleFunc(func(c *Client, line string) { c.Send("echo:" + line) })
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}

		talker, sc := dial(t, addr)
		silent, _ := dial(t, addr)

		// The talker chats through several deadline-lengths and survives.
		for i := 0; i < 6; i++ {
			fmt.Fprintf(talker, "ping%d\n", i)
			if !sc.Scan() {
				t.Fatalf("talker disconnected at message %d: %v", i, sc.Err())
			}
			time.Sleep(30 * time.Millisecond)
		}

		// The silent client is reaped: its next read sees the close.
		silent.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := silent.Read(make([]byte, 1)); err == nil {
			t.Fatal("silent client still connected past the idle deadline")
		}
		poll.Until(t, "deadline close counted", func() bool { return s.DeadlineCloses() >= 1 })
		poll.Until(t, "client table reflects the reap", func() bool { return s.ClientCount() == 1 })
	})
}

// TestMaxConnsShedsWithBusyLine: over the cap, new connections receive the
// busy line, are closed, and are counted — and the slot frees when an
// admitted client leaves.
func TestMaxConnsShedsWithBusyLine(t *testing.T) {
	eachTransport(t, func(t *testing.T, s *Server) {
		defer s.Stop()
		s.SetMaxConns(1, "BUSY try later")
		s.HandleFunc(func(c *Client, line string) { c.Send("echo:" + line) })
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}

		first, sc := dial(t, addr)
		fmt.Fprintln(first, "hello")
		if !sc.Scan() || sc.Text() != "echo:hello" {
			t.Fatalf("admitted client echo = %q, %v", sc.Text(), sc.Err())
		}

		// Second connection: shed with the busy line, then closed.
		second, sc2 := dial(t, addr)
		second.SetReadDeadline(time.Now().Add(10 * time.Second))
		if !sc2.Scan() || sc2.Text() != "BUSY try later" {
			t.Fatalf("shed client got %q, %v; want busy line", sc2.Text(), sc2.Err())
		}
		if sc2.Scan() {
			t.Fatalf("shed client got %q after the busy line; want close", sc2.Text())
		}
		poll.Until(t, "shed counted", func() bool { return s.ConnShed() == 1 })

		// The admitted client leaves; its slot must admit the next dial.
		first.Close()
		poll.Until(t, "slot released", func() bool { return s.ClientCount() == 0 })
		third, sc3 := dial(t, addr)
		fmt.Fprintln(third, "again")
		third.SetReadDeadline(time.Now().Add(10 * time.Second))
		if !sc3.Scan() || sc3.Text() != "echo:again" {
			t.Fatalf("post-release client got %q, %v; want echo", sc3.Text(), sc3.Err())
		}
	})
}

// TestDrainStopBoundedByDeadline: DrainStop stops accepting immediately,
// lets connected clients finish, and comes back within its deadline even
// when a client lingers.
func TestDrainStopBoundedByDeadline(t *testing.T) {
	eachTransport(t, func(t *testing.T, s *Server) {
		s.HandleFunc(func(c *Client, line string) { c.Send("echo:" + line) })
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}

		// A client that answers-and-lingers: the drain deadline must bound it.
		lingerer, sc := dial(t, addr)
		fmt.Fprintln(lingerer, "last call")
		if !sc.Scan() || sc.Text() != "echo:last call" {
			t.Fatalf("pre-drain echo = %q, %v", sc.Text(), sc.Err())
		}

		start := time.Now()
		s.DrainStop(300 * time.Millisecond)
		if e := time.Since(start); e > 10*time.Second {
			t.Fatalf("DrainStop took %v; deadline did not bound it", e)
		}
		// Fully stopped: no new connections, lingerer disconnected.
		if c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond); err == nil {
			c.Close()
			t.Fatal("drained server still accepting")
		}
		lingerer.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := lingerer.Read(make([]byte, 1)); err == nil {
			t.Fatal("lingerer still connected after DrainStop")
		}
	})
}

// TestDrainStopFastWhenClientsLeave: when every client disconnects
// promptly, DrainStop returns well before its deadline instead of
// sleeping through it.
func TestDrainStopFastWhenClientsLeave(t *testing.T) {
	eachTransport(t, func(t *testing.T, s *Server) {
		s.HandleFunc(func(c *Client, line string) { c.Send("echo:" + line) })
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cli, sc := dial(t, addr)
		fmt.Fprintln(cli, "bye")
		if !sc.Scan() {
			t.Fatal(sc.Err())
		}
		cli.Close()
		poll.Until(t, "client gone", func() bool { return s.ClientCount() == 0 })

		start := time.Now()
		s.DrainStop(30 * time.Second)
		if e := time.Since(start); e > 10*time.Second {
			t.Fatalf("DrainStop with no clients took %v", e)
		}
	})
}
