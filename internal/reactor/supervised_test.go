package reactor

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/gid"
	"repro/internal/supervise"
	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
	"repro/internal/trace"
)

func newTestSupervised(t *testing.T, name string) *Supervised {
	t.Helper()
	if !Supported {
		t.Skip("no reactor poller on this platform")
	}
	s, err := NewSupervised(name, &gid.Registry{}, supervise.Options{
		MaxRestarts:    10,
		Window:         time.Minute,
		BackoffInitial: time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// crash kills the current generation's poll goroutine: a posted
// runtime.Goexit escapes contain's recover (no panic value) and lands in
// run()'s crash path — the same death a chaos Kill injects.
func crash(t *testing.T, s *Supervised) {
	t.Helper()
	if err := s.Current().Post(func() { runtime.Goexit() }); err != nil {
		t.Fatalf("post crash: %v", err)
	}
}

// TestSupervisedReactorRestartsAndKeepsServing is the heart of the
// survivability story: a poll-goroutine death fails in-flight connections
// with ErrPollCrash, the supervisor builds a fresh generation, the
// listener survives onto it (same address), and new clients are served —
// all traced as OpReactorRestart.
func TestSupervisedReactorRestartsAndKeepsServing(t *testing.T) {
	defer leakcheck.Check(t)()
	buf := trace.NewBuffer(64)
	defer trace.Use(buf)()
	s := newTestSupervised(t, "sup")
	defer s.Stop()

	var srv collector
	addr, err := s.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		h := srv.handlers()
		h.OnReadable = func(c *Conn, data []byte) { c.Write(data) }
		return h
	})
	if err != nil {
		t.Fatal(err)
	}

	// Generation 0 serves.
	cli, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write([]byte("gen0")); err != nil {
		t.Fatal(err)
	}
	echo := make([]byte, 4)
	if _, err := cli.Read(echo); err != nil || string(echo) != "gen0" {
		t.Fatalf("gen0 echo = %q, %v", echo, err)
	}

	crash(t, s)

	// The in-flight connection fails typed, not silently.
	poll.Until(t, "in-flight conn failed", func() bool { return srv.closeCount() == 1 })
	if err := srv.closeErr(); !errors.Is(err, ErrPollCrash) {
		t.Fatalf("in-flight close err = %v, want ErrPollCrash", err)
	}
	if s.Stats().LoopCrashes == 0 {
		t.Fatal("LoopCrashes not counted")
	}

	// A fresh generation takes over the same address.
	poll.UntilFor(t, 10*time.Second, "restarted generation serves", func() bool {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return false
		}
		defer c.Close()
		if _, err := c.Write([]byte("gen1")); err != nil {
			return false
		}
		c.SetReadDeadline(time.Now().Add(time.Second))
		b := make([]byte, 4)
		n, err := c.Read(b)
		return err == nil && string(b[:n]) == "gen1"
	})
	// A generation serves from the moment its listeners are registered; the
	// supervisor traces and publishes it right after.
	poll.Until(t, "OpReactorRestart traced", func() bool { return buf.CountOp(trace.OpReactorRestart) > 0 })
	poll.Until(t, "health past generation 0", func() bool { return s.Health().Generation > 0 })
}

// TestSupervisedListenAfterRestart: listeners added while a restart is in
// flight attach to the next generation instead of failing.
func TestSupervisedSurvivesRepeatedCrashes(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newTestSupervised(t, "multi")
	defer s.Stop()

	addr, err := s.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		return HandlerFuncs{OnReadable: func(c *Conn, data []byte) { c.Write(data) }}
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		poll.UntilFor(t, 10*time.Second, "generation serves", func() bool {
			c, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				return false
			}
			defer c.Close()
			if _, err := c.Write([]byte("ping")); err != nil {
				return false
			}
			c.SetReadDeadline(time.Now().Add(time.Second))
			b := make([]byte, 4)
			n, err := c.Read(b)
			return err == nil && string(b[:n]) == "ping"
		})
		// Kill whichever generation is current right now; tolerate a post
		// racing a restart (ErrClosed just means the crash already took)
		// and wait for the crash to register before the next round, so
		// each kill hits a live generation.
		before := s.Stats().LoopCrashes
		poll.UntilFor(t, 10*time.Second, "crash landed", func() bool {
			if r := s.Current(); r != nil {
				_ = r.Post(func() { runtime.Goexit() })
			}
			return s.Stats().LoopCrashes > before
		})
	}
	poll.UntilFor(t, 10*time.Second, "final generation serves", func() bool {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return false
		}
		c.Close()
		return true
	})
	if got := s.Stats().LoopCrashes; got < 3 {
		t.Fatalf("LoopCrashes = %d, want >= 3", got)
	}
}

// TestStopDuringRestartWindow is the shutdown/restart race regression: a
// Stop issued while the supervisor is mid-restart must neither deadlock
// nor leave a freshly-spawned generation running. Run with -race; the
// iteration count gives the schedules room to interleave.
func TestStopDuringRestartWindow(t *testing.T) {
	defer leakcheck.Check(t)()
	if !Supported {
		t.Skip("no reactor poller on this platform")
	}
	for i := 0; i < 20; i++ {
		s := newTestSupervised(t, "race")
		if _, err := s.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
			return HandlerFuncs{}
		}); err != nil {
			t.Fatal(err)
		}
		crash(t, s)
		done := make(chan struct{})
		go func() {
			s.Stop() // races the supervisor's respawn
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: Stop deadlocked against restart", i)
		}
	}
}

// TestWatchdogSeesCrashedUnsupervisedReactor is the control for the
// supervision story: an unsupervised reactor that loses its poll goroutine
// stays dead, and the watchdog's probe reads it as down (not merely
// stalled) because posts fail typed.
func TestWatchdogSeesCrashedUnsupervisedReactor(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "bare")
	defer r.Stop()
	e := newReactorExec(r)

	// Alive: a probe-shaped post completes.
	if err := e.Post(func() {}).Wait(); err != nil {
		t.Fatalf("healthy post: %v", err)
	}

	w := supervise.NewWatchdog(5 * time.Millisecond)
	w.Watch("bare", e, 25*time.Millisecond)
	w.Start()
	defer w.Stop()

	if err := r.Post(func() { runtime.Goexit() }); err != nil {
		t.Fatal(err)
	}
	poll.UntilFor(t, 10*time.Second, "watchdog reads down", func() bool {
		return w.Health()["bare"].LivenessValue() == supervise.LiveDown
	})
	if err := e.Post(func() {}).Wait(); !errors.Is(err, supervise.ErrTargetDown) {
		t.Fatalf("post to dead reactor = %v, want ErrTargetDown", err)
	}
}
