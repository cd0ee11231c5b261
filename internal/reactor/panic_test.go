package reactor

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
)

// TestHandlerPanicClosesOnlyThatConn: a panicking OnReadable takes down its
// own connection (typed HandlerPanicError, counted) while the poll loop and
// every other connection keep serving.
func TestHandlerPanicClosesOnlyThatConn(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "panic")
	defer r.Stop()

	var bomb, echo collector
	bombAddr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		h := bomb.handlers()
		h.OnReadable = func(c *Conn, data []byte) { panic("handler boom") }
		return h
	})
	if err != nil {
		t.Fatal(err)
	}
	echoAddr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		return HandlerFuncs{OnReadable: func(c *Conn, data []byte) { c.Write(data) }}
	})
	if err != nil {
		t.Fatal(err)
	}

	cli, err := net.Dial("tcp", bombAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write([]byte("trigger")); err != nil {
		t.Fatal(err)
	}
	poll.Until(t, "panicking conn closed", func() bool { return bomb.closeCount() == 1 })
	var hp *HandlerPanicError
	if err := bomb.closeErr(); !errors.As(err, &hp) || hp.Value != "handler boom" {
		t.Fatalf("close err = %v, want HandlerPanicError(handler boom)", err)
	}
	if r.Stats().HandlerPanics != 1 {
		t.Fatalf("HandlerPanics = %d, want 1", r.Stats().HandlerPanics)
	}

	// The loop survived: a fresh echo round trip works.
	c, err := r.Dial(echoAddr, echo.handlers())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write([]byte("still alive\n")); err != nil {
		t.Fatal(err)
	}
	poll.Until(t, "echo after panic", func() bool { return echo.String() == "still alive\n" })
	if r.Stats().LoopCrashes != 0 {
		t.Fatalf("handler panic escalated to a loop crash")
	}
}

// TestOnClosePanicContained: a panic inside OnClose itself (already on the
// teardown path) is counted and recovered without re-entering closeConn or
// killing the loop.
func TestOnClosePanicContained(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "closepanic")
	defer r.Stop()

	closed := make(chan struct{})
	addr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		return HandlerFuncs{
			OnClose: func(c *Conn, err error) {
				close(closed)
				panic("close boom")
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cli.Close() // peer EOF → OnClose fires and panics
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("OnClose never fired")
	}
	poll.Until(t, "panic counted", func() bool { return r.Stats().HandlerPanics == 1 })

	// Loop still serving.
	var echo collector
	addr2, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		return HandlerFuncs{OnReadable: func(c *Conn, data []byte) { c.Write(data) }}
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Dial(addr2, echo.handlers())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	poll.Until(t, "echo after OnClose panic", func() bool { return echo.String() == "ok" })
}
