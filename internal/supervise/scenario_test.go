// These scenarios drive supervised and bare pools through the chaos injector
// and read them through this package's grades and watchdog.
package supervise_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/supervise"
	"repro/internal/trace"

	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
)

// TestSupervisedSurvivesKillStorm is the acceptance scenario: worker kills
// injected at a 10% rate, a supervised pool beneath the chaos wrapper keeps
// serving by respawning within its budget, health degrades and then
// recovers, and no invocation hangs — every one completes or fails with a
// typed error.
func TestSupervisedSurvivesKillStorm(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	inj := chaos.New(chaos.SeedFromEnv(1337),
		chaos.Rule{Action: chaos.Kill, Rate: 0.10, Count: 8})
	pool := executor.NewSupervisedPool("w", 3, &reg, executor.RestartConfig{
		MaxRestarts:    20,
		Window:         300 * time.Millisecond,
		BackoffInitial: time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
	})
	s := inj.Wrap(pool)
	defer s.Shutdown()
	buf := trace.NewBuffer(4096) // the global sink also receives every task span
	t.Cleanup(trace.Use(buf))

	const calls = 200
	var ok, typed int
	sawDegraded := false
	for i := 0; i < calls; i++ {
		c := s.Post(func() {})
		select {
		case <-c.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("invocation %d hung", i)
		}
		switch err := c.Err(); {
		case err == nil:
			ok++
		case errors.Is(err, executor.ErrWorkerCrashed):
			typed++
		default:
			t.Fatalf("invocation %d: untyped failure %v", i, err)
		}
		if health(pool).StatusValue() == supervise.Degraded {
			sawDegraded = true
		}
	}
	if kills := inj.Injected(chaos.Kill); kills == 0 {
		t.Fatal("storm injected no kills; scenario proved nothing")
	}
	if ok == 0 {
		t.Fatal("no invocation succeeded during the storm")
	}
	if !sawDegraded || pool.Restarts().Total == 0 {
		t.Fatalf("supervision not exercised: degraded=%v respawns=%d",
			sawDegraded, pool.Restarts().Total)
	}
	if buf.CountOp(trace.OpRestart) == 0 {
		t.Fatal("no OpRestart traced")
	}

	// The storm is bounded (Count): once it passes and the window slides,
	// the target reads healthy and serves cleanly again.
	poll.UntilFor(t, 5*time.Second, "post-storm recovery", func() bool {
		return health(pool).StatusValue() == supervise.Healthy && s.Post(func() {}).Wait() == nil
	})
	t.Logf("storm: %d ok, %d typed failures, %d kills, %d respawns",
		ok, typed, inj.Injected(chaos.Kill), pool.Restarts().Total)
}

// TestUnsupervisedPoolWedgesAndWatchdogSees is the control: the same kill
// fault against a bare pool takes its workers down for good, posted work
// queues forever, and only the watchdog's stall detection notices.
func TestUnsupervisedPoolWedgesAndWatchdogSees(t *testing.T) {
	var reg gid.Registry
	pool := executor.NewWorkerPool("w", 2, &reg)
	defer pool.Shutdown()
	// Deterministic storm: the first two tasks each kill a worker.
	inj := chaos.New(chaos.SeedFromEnv(1337),
		chaos.Rule{Action: chaos.Kill, Nth: 1, Count: 2})
	e := inj.Wrap(pool)

	for i := 0; i < 2; i++ {
		if err := e.Post(func() {}).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
			t.Fatalf("kill %d err = %v", i, err)
		}
	}
	poll.UntilFor(t, 2*time.Second, "all workers dead", func() bool { return pool.Workers() == 0 })

	// Watch only once the pool is dead, so heartbeat probes don't race the
	// deterministic kill schedule above.
	buf := trace.NewBuffer(4096)
	t.Cleanup(trace.Use(buf))
	w := supervise.NewWatchdog(10 * time.Millisecond)
	w.Watch("w", e, 50*time.Millisecond)
	w.Start()
	defer w.Stop()

	// Nobody restarts anything: this post wedges in the queue.
	wedged := e.Post(func() {})
	poll.UntilFor(t, 2*time.Second, "watchdog stall detection", func() bool {
		return w.Health()["w"].LivenessValue() == supervise.LiveStalled
	})
	if wedged.Finished() {
		t.Fatal("wedged post completed with no workers")
	}
	if buf.CountOp(trace.OpStall) == 0 {
		t.Fatal("no OpStall traced")
	}
	r := w.Health()["w"]
	if r.Stalls == 0 || r.StallFor <= 0 {
		t.Fatalf("stall report = %+v", r)
	}

	// Shutdown's fail-pending backstop keeps even the wedge from leaking:
	// the stranded task fails typed instead of hanging forever.
	pool.Shutdown()
	if err := wedged.Wait(); !errors.Is(err, executor.ErrShutdown) {
		t.Fatalf("stranded task err = %v", err)
	}
}

// TestWatchdogSeesBlockedThenRecovered drives a stall episode end to end:
// stalled while the only worker is blocked, OK again once it unblocks.
func TestWatchdogSeesBlockedThenRecovered(t *testing.T) {
	var reg gid.Registry
	pool := executor.NewWorkerPool("w", 1, &reg)
	defer pool.Shutdown()
	w := supervise.NewWatchdog(5 * time.Millisecond)
	w.Watch("w", pool, 25*time.Millisecond)
	w.Start()
	defer w.Stop()

	gate := make(chan struct{})
	pool.Post(func() { <-gate })
	poll.UntilFor(t, 2*time.Second, "stall while blocked", func() bool {
		return w.Health()["w"].LivenessValue() == supervise.LiveStalled
	})
	close(gate)
	poll.UntilFor(t, 2*time.Second, "recovery after unblock", func() bool {
		return w.Health()["w"].LivenessValue() == supervise.LiveOK
	})
	if w.Stalls() != 1 {
		t.Fatalf("stall episodes = %d, want 1", w.Stalls())
	}
}

// TestWatchdogReportsDownTarget: probes answered with ErrTargetDown read
// LiveDown, not stalled — the watchdog distinguishes dead from blocked.
func TestWatchdogReportsDownTarget(t *testing.T) {
	var reg gid.Registry
	pool := executor.NewSupervisedPool("w", 1, &reg, executor.RestartConfig{MaxRestarts: 1, Window: time.Minute, BackoffInitial: time.Millisecond})
	defer pool.Shutdown()
	// Two kills exhaust the budget of 1: the first is respawned, the second
	// is not.
	if err := pool.Post(kill).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("first kill err = %v", err)
	}
	poll.UntilFor(t, 2*time.Second, "first respawn done", func() bool {
		return pool.Restarts().Total == 1 && pool.Workers() == 1
	})
	if err := pool.Post(kill).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("second kill err = %v", err)
	}
	poll.UntilFor(t, 2*time.Second, "down", func() bool {
		return health(pool).StatusValue() == supervise.Down
	})

	w := supervise.NewWatchdog(5 * time.Millisecond)
	w.Watch("w", pool, 25*time.Millisecond)
	w.Start()
	defer w.Stop()
	poll.UntilFor(t, 2*time.Second, "down via probe", func() bool {
		return w.Health()["w"].LivenessValue() == supervise.LiveDown
	})
}
