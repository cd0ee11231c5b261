package reactor

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
	"repro/internal/trace"
)

// TestIdleDeadlineReapsSilentConn is the slowloris case: a client that
// connects and then says nothing is closed by the idle deadline with
// ErrIdleTimeout, counted in DeadlineCloses, and traced as OpConnDeadline.
func TestIdleDeadlineReapsSilentConn(t *testing.T) {
	defer leakcheck.Check(t)()
	buf := trace.NewBuffer(64)
	defer trace.Use(buf)()
	r := newTestReactor(t, "idle")
	defer r.Stop()

	var srv collector
	addr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		c.SetIdleDeadline(50 * time.Millisecond)
		return srv.handlers()
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	start := time.Now()
	poll.Until(t, "silent conn reaped", func() bool { return srv.closeCount() == 1 })
	if e := time.Since(start); e < 40*time.Millisecond {
		t.Fatalf("reaped after %v, before the 50ms deadline", e)
	}
	if err := srv.closeErr(); !errors.Is(err, ErrIdleTimeout) || !errors.Is(err, ErrDeadline) {
		t.Fatalf("close err = %v, want ErrIdleTimeout (wrapping ErrDeadline)", err)
	}
	if r.Stats().DeadlineCloses != 1 {
		t.Fatalf("DeadlineCloses = %d, want 1", r.Stats().DeadlineCloses)
	}
	if buf.CountOp(trace.OpConnDeadline) != 1 {
		t.Fatalf("OpConnDeadline traced %d times, want 1", buf.CountOp(trace.OpConnDeadline))
	}
}

// TestIdleDeadlineDisarmedByActivity: a client that keeps trickling bytes
// is never reaped — each read pushes the idle horizon out — and is reaped
// only once it goes silent.
func TestIdleDeadlineDisarmedByActivity(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "trickle")
	defer r.Stop()

	var srv collector
	addr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		c.SetIdleDeadline(80 * time.Millisecond)
		return srv.handlers()
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Trickle for several deadline-lengths: the connection must survive.
	for i := 0; i < 10; i++ {
		if _, err := cli.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if srv.closeCount() != 0 {
		t.Fatalf("active conn reaped: %v", srv.closeErr())
	}
	// Go silent: now the reaper fires.
	poll.Until(t, "reaped after going silent", func() bool { return srv.closeCount() == 1 })
	if err := srv.closeErr(); !errors.Is(err, ErrIdleTimeout) {
		t.Fatalf("close err = %v, want ErrIdleTimeout", err)
	}
}

// TestIdleDeadlineDisarm: setting the deadline back to zero cancels the
// reaper before it fires.
func TestIdleDeadlineDisarm(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "disarm")
	defer r.Stop()

	var srv collector
	accepted := make(chan *Conn, 1)
	addr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		c.SetIdleDeadline(40 * time.Millisecond)
		accepted <- c
		return srv.handlers()
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	conn := <-accepted
	conn.SetIdleDeadline(0)

	time.Sleep(120 * time.Millisecond) // 3× the cancelled deadline
	if srv.closeCount() != 0 {
		t.Fatalf("disarmed deadline still reaped the conn: %v", srv.closeErr())
	}
}
