//go:build chaos

package netloop

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/reactor"
	"repro/internal/supervise"
	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
)

// chaosRoundTrip dials, sends one line, and reports whether the echo came
// back — tolerant of every failure mode the storm can inject.
func chaosRoundTrip(addr string) bool {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return false
	}
	defer c.Close()
	if _, err := fmt.Fprintln(c, "ping"); err != nil {
		return false
	}
	c.SetReadDeadline(time.Now().Add(time.Second))
	sc := bufio.NewScanner(c)
	return sc.Scan() && sc.Text() == "echo:ping"
}

// TestChaosReactorServerOutlivesStorm is the fd-level drill: a reactor
// server is hit with short writes and spurious EAGAIN at the IO seam while
// slowloris connections hold sockets open and say nothing. The server must
// shed the slowloris conns via the idle deadline under the faults and serve
// cleanly once the storm is switched off — with no goroutine left behind.
// A poll-goroutine death is final and has its own control below
// (TestChaosBareReactorDiesAndWatchdogSees).
func TestChaosReactorServerOutlivesStorm(t *testing.T) {
	if !reactor.Supported {
		t.Skip("no reactor poller on this platform")
	}
	defer leakcheck.Check(t)()
	inj := chaos.New(chaos.SeedFromEnv(1337),
		chaos.Rule{Target: "fd", Action: chaos.ShortWrite, Rate: 0.05},
		chaos.Rule{Target: "fd", Action: chaos.SpuriousEAGAIN, Rate: 0.01},
	)

	s := New("storm", &gid.Registry{})
	defer s.Stop()
	if err := s.EnableReactor(); err != nil {
		t.Fatal(err)
	}
	s.SetIdleDeadline(100 * time.Millisecond)
	s.SetMaxConns(64, "BUSY")
	s.HandleFunc(func(c *Client, line string) { c.Send("echo:" + line) })
	r := s.Reactor()
	r.SetIOInterceptor(inj.FDInterceptor("fd"))

	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Slowloris: sockets that connect and never speak. The idle deadline
	// must reap them even while the storm rages.
	var loris []net.Conn
	for i := 0; i < 8; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		loris = append(loris, c)
	}
	defer func() {
		for _, c := range loris {
			c.Close()
		}
	}()

	// The storm: enough traffic for plenty of fd faults. Individual round
	// trips may fail; the server as a whole must keep making progress.
	ok := 0
	for i := 0; i < 200; i++ {
		if chaosRoundTrip(addr) {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("no round trip succeeded during the storm")
	}
	if crashes := r.Stats().LoopCrashes; crashes != 0 {
		t.Fatalf("LoopCrashes = %d, want 0: fd faults must not kill the poll loop", crashes)
	}
	if faults := inj.Injected(chaos.ShortWrite) + inj.Injected(chaos.SpuriousEAGAIN); faults == 0 {
		t.Fatal("no fd-level faults injected; drill proved nothing about the IO seam")
	}

	// Slowloris sockets are gone: their reads see the server-side close
	// (reaped by the idle deadline).
	for i, c := range loris {
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatalf("slowloris conn %d still held open", i)
		}
	}

	if s.DeadlineCloses() < int64(len(loris)) {
		t.Fatalf("DeadlineCloses = %d, want >= %d (one per slowloris conn)", s.DeadlineCloses(), len(loris))
	}

	// Storm over: with injection off, the server serves cleanly.
	inj.SetEnabled(false)
	poll.UntilFor(t, 10*time.Second, "post-storm clean round trip", func() bool {
		return chaosRoundTrip(addr)
	})

	// Service after the storm: a cohort of fresh clients, each on one
	// connection it keeps, completes every round trip it sends.
	const cohort, rounds = 16, 10
	var fresh []net.Conn
	var lines []*bufio.Scanner
	for i := 0; i < cohort; i++ {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatalf("post-storm dial %d/%d: %v", i, cohort, err)
		}
		defer c.Close()
		fresh = append(fresh, c)
		lines = append(lines, bufio.NewScanner(c))
	}
	served := 0
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i, c := range fresh {
			c.SetDeadline(time.Now().Add(5 * time.Second))
			want := fmt.Sprintf("echo:c%d-r%d", i, r)
			if _, err := fmt.Fprintln(c, want[len("echo:"):]); err != nil {
				t.Fatalf("post-storm client %d round %d: %v", i, r, err)
			}
			if !lines[i].Scan() || lines[i].Text() != want {
				t.Fatalf("post-storm client %d round %d: got %q (%v), want %q", i, r, lines[i].Text(), lines[i].Err(), want)
			}
			served++
		}
	}
	if served != cohort*rounds {
		t.Fatalf("post-storm cohort completed %d/%d round trips", served, cohort*rounds)
	}
	t.Logf("storm: %d/200 round trips ok, deadlineCloses=%d, shortWrites=%d, eagains=%d; after: %d/%d round trips at %.0f/s",
		ok, s.DeadlineCloses(),
		inj.Injected(chaos.ShortWrite), inj.Injected(chaos.SpuriousEAGAIN),
		served, cohort*rounds, float64(served)/time.Since(start).Seconds())
}

// bareProbe is the watchdog's view of a reactor: each probe is
// posted onto the poll goroutine, and once the reactor rejects posts (it
// stopped or crashed) the probe fails with executor.ErrTargetDown.
type bareProbe struct{ r *reactor.Reactor }

func (p bareProbe) Name() string { return p.r.Name() }

func (p bareProbe) Post(fn func()) *executor.Completion {
	c := new(executor.Completion)
	p.PostTo(c, fn)
	return c
}

func (p bareProbe) PostTo(c *executor.Completion, fn func()) {
	b := executor.Bracket{Fn: fn}
	if err := p.r.Post(func() { b.Run(c, p.Name(), nil) }); err != nil {
		b.Fail(c, p.Name(), fmt.Errorf("%v: %w", err, executor.ErrTargetDown))
	}
}

func (p bareProbe) Owns() bool          { return p.r.Owns() }
func (p bareProbe) TryRunPending() bool { return false }
func (p bareProbe) Shutdown()           { p.r.Stop() }

// TestChaosBareReactorDiesAndWatchdogSees is the crash control: a dispatch
// kill takes a reactor server's address down for good, and the watchdog's
// probe reads that reactor as down — detection without recovery.
func TestChaosBareReactorDiesAndWatchdogSees(t *testing.T) {
	if !reactor.Supported {
		t.Skip("no reactor poller on this platform")
	}
	inj := chaos.New(chaos.SeedFromEnv(1337),
		chaos.Rule{Target: "poll", Action: chaos.Kill, Nth: 1, Count: 1})

	s := New("bare", &gid.Registry{})
	defer s.Stop()
	if err := s.EnableReactor(); err != nil {
		t.Fatal(err)
	}
	s.HandleFunc(func(c *Client, line string) { c.Send("echo:" + line) })
	r := s.Reactor()
	r.SetInterceptor(inj.NetInterceptor("poll"))
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	w := supervise.NewWatchdog(5 * time.Millisecond)
	w.Watch("bare", bareProbe{r}, 25*time.Millisecond)
	w.Start()
	defer w.Stop()

	// First readiness event trips the kill; nobody restarts anything.
	if chaosRoundTrip(addr) {
		t.Fatal("round trip succeeded through an Nth=1 kill")
	}
	poll.UntilFor(t, 10*time.Second, "loop crash counted", func() bool {
		return r.Stats().LoopCrashes >= 1
	})
	for i := 0; i < 3; i++ {
		if chaosRoundTrip(addr) {
			t.Fatal("bare reactor served after its poll goroutine died")
		}
	}
	poll.UntilFor(t, 10*time.Second, "watchdog reads down", func() bool {
		return w.Health()["bare"].LivenessValue() == supervise.LiveDown
	})
}
