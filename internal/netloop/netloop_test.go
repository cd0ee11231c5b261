package netloop

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gid"

	"repro/internal/testutil/leakcheck"
)

func dial(t *testing.T, addr string) (net.Conn, *bufio.Scanner) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewScanner(conn)
}

func TestEchoSingleThreadedDispatch(t *testing.T) {
	reg := &gid.Registry{}
	s := New("dispatch", reg)
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
	conn, sc := dial(t, addr)
	for i := 0; i < 5; i++ {
		fmt.Fprintf(conn, "msg%d\n", i)
	}
	for i := 0; i < 5; i++ {
		if !sc.Scan() {
			t.Fatalf("connection closed after %d replies", i)
		}
		if want := fmt.Sprintf("echo:msg%d", i); sc.Text() != want {
			t.Fatalf("reply %d = %q, want %q (per-connection order broken)", i, sc.Text(), want)
		}
	}
	if offLoop != 0 {
		t.Fatalf("%d handler invocations off the dispatch loop", offLoop)
	}
	if s.Messages() != 5 {
		t.Fatalf("Messages = %d", s.Messages())
	}
}

func TestDispatchLoopAsVirtualTarget(t *testing.T) {
	// The point of the package: the message handler offloads computation to
	// a worker target and hops back to the dispatch target for the reply —
	// the Figure 6 pattern on a network server instead of a GUI.
	reg := &gid.Registry{}
	rt := core.NewRuntime(reg)
	defer rt.Shutdown()
	s := New("dispatch", reg)
	defer s.Stop()
	if err := rt.RegisterEDT("dispatch", s.Loop()); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.CreateWorker("worker", 2); err != nil {
		t.Fatal(err)
	}
	s.HandleFunc(func(c *Client, line string) {
		rt.Invoke("worker", core.Nowait, func() {
			upper := strings.ToUpper(line) // "heavy" computation off the loop
			rt.Invoke("dispatch", core.Wait, func() {
				if !s.Loop().Owns() {
					t.Error("reply block off the dispatch loop")
				}
				c.Send(upper)
			})
		})
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, sc := dial(t, addr)
	fmt.Fprintln(conn, "hello event loops")
	if !sc.Scan() {
		t.Fatal("no reply")
	}
	if sc.Text() != "HELLO EVENT LOOPS" {
		t.Fatalf("reply = %q", sc.Text())
	}
}

func TestMultipleClients(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := &gid.Registry{}
	s := New("dispatch", reg)
	defer s.Stop()
	s.HandleFunc(func(c *Client, line string) { c.Send(line) })
	addr, _ := s.Start("127.0.0.1:0")

	const clients, msgs = 8, 20
	var wg sync.WaitGroup
	for u := 0; u < clients; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			for m := 0; m < msgs; m++ {
				fmt.Fprintf(conn, "c%d-m%d\n", u, m)
				if !sc.Scan() {
					t.Errorf("client %d: dropped at %d", u, m)
					return
				}
				if want := fmt.Sprintf("c%d-m%d", u, m); sc.Text() != want {
					t.Errorf("client %d: got %q want %q", u, sc.Text(), want)
					return
				}
			}
		}(u)
	}
	wg.Wait()
	if s.Messages() != clients*msgs {
		t.Fatalf("Messages = %d, want %d", s.Messages(), clients*msgs)
	}
	if s.Accepted() != clients {
		t.Fatalf("Accepted = %d", s.Accepted())
	}
}

func TestConnectCloseCallbacks(t *testing.T) {
	reg := &gid.Registry{}
	s := New("dispatch", reg)
	defer s.Stop()
	connected := make(chan int64, 1)
	closed := make(chan int64, 1)
	s.OnConnect(func(c *Client) { connected <- c.ID() })
	s.OnClose(func(c *Client) { closed <- c.ID() })
	s.HandleFunc(func(c *Client, line string) {})
	addr, _ := s.Start("127.0.0.1:0")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var id int64
	select {
	case id = <-connected:
	case <-time.After(5 * time.Second):
		t.Fatal("no connect callback")
	}
	if s.ClientCount() != 1 {
		t.Fatalf("ClientCount = %d", s.ClientCount())
	}
	conn.Close()
	select {
	case cid := <-closed:
		if cid != id {
			t.Fatalf("closed id %d != connected id %d", cid, id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no close callback")
	}
}

func TestStopIdempotentAndRejectsLateClients(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := &gid.Registry{}
	s := New("dispatch", reg)
	s.HandleFunc(func(c *Client, line string) {})
	addr, _ := s.Start("127.0.0.1:0")
	conn, _ := net.Dial("tcp", addr)
	if conn != nil {
		defer conn.Close()
	}
	s.Stop()
	s.Stop() // no-op
	if late, err := net.Dial("tcp", addr); err == nil {
		// A dial may succeed momentarily in the accept backlog; the
		// connection must then be closed without ever being serviced.
		_ = late.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, rerr := late.Read(make([]byte, 1)); rerr == nil {
			t.Fatal("stopped server wrote to a late connection")
		}
		late.Close()
	}
}

// TestNoLimiterKeepsSeedBehaviour checks that the dispatch queue admits
// every message: all are answered and nothing is shed.
func TestNoLimiterKeepsSeedBehaviour(t *testing.T) {
	s := New("dispatch", nil)
	defer s.Stop()
	s.HandleFunc(func(c *Client, line string) { c.Send("ack:" + line) })
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, sc := dial(t, addr)
	for i := 0; i < 10; i++ {
		fmt.Fprintf(conn, "m%d\n", i)
	}
	for i := 0; i < 10; i++ {
		if !sc.Scan() {
			t.Fatalf("missing response %d", i)
		}
	}
	if s.Shed() != 0 {
		t.Fatalf("Shed = %d", s.Shed())
	}
}
