package reactor

import (
	"errors"
	"net"
	"runtime"
	"sync/atomic"
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

// TestPollCrashFailsConnsAndStaysDown is the crash contract: a death the
// dispatch recover cannot catch (runtime.Goexit through the Interceptor, the
// way a chaos Kill lands) fails every in-flight connection — accepted and
// dialled — with ErrPollCrash, is counted once, and is final: Post is
// rejected, the listener is gone, and Stop still returns.
func TestPollCrashFailsConnsAndStaysDown(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "crash")

	var srv, cli collector
	addr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		h := srv.handlers()
		h.OnReadable = func(c *Conn, data []byte) { c.Write(data) }
		return h
	})
	if err != nil {
		t.Fatal(err)
	}
	var kill atomic.Bool
	r.SetInterceptor(func(event string, fn func()) (func(), bool) {
		if kill.Load() {
			return runtime.Goexit, true
		}
		return fn, true
	})
	c, err := r.Dial(addr, cli.handlers())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	poll.Until(t, "echo before the crash", func() bool { return cli.String() == "ping" })
	if s := r.Stats(); s.Accepted != 1 || s.Dialed != 1 || s.Conns != 2 {
		t.Fatalf("before the crash: accepted %d, dialed %d, conns %d; want 1, 1, 2", s.Accepted, s.Dialed, s.Conns)
	}

	kill.Store(true)
	if err := c.Write([]byte("die")); err != nil {
		t.Fatal(err)
	}
	poll.Until(t, "both conns failed", func() bool { return srv.closeCount() == 1 && cli.closeCount() == 1 })
	for side, err := range map[string]error{"accepted": srv.closeErr(), "dialled": cli.closeErr()} {
		if !errors.Is(err, ErrPollCrash) {
			t.Fatalf("%s conn closed with %v, want ErrPollCrash", side, err)
		}
	}
	if n := r.Stats().LoopCrashes; n != 1 {
		t.Fatalf("LoopCrashes = %d, want 1", n)
	}
	if err := r.Post(func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Post after the crash = %v, want ErrClosed", err)
	}
	if nc, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		nc.Close()
		t.Fatal("the listener still accepts after the crash")
	}

	stopped := make(chan struct{})
	go func() { r.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop after a crash did not return")
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
