// The respawn tests drive a supervised pool (executor.NewSupervisedPool) and
// read its restart record through the grade this package gives it.
package supervise_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/supervise"
	"repro/internal/trace"

	"repro/internal/testutil/leakcheck"

	"repro/internal/testutil/poll"
)

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	poll.UntilFor(t, d, msg, cond)
}

// health grades p's restart record.
func health(p *executor.WorkerPool) supervise.TargetHealth {
	return supervise.Grade(p.Name(), p.Restarts())
}

// kill is a task that takes down the worker running it.
func kill() { runtime.Goexit() }

func TestRespawnReplacesCrashedWorker(t *testing.T) {
	var reg gid.Registry
	p := executor.NewSupervisedPool("w", 2, &reg, executor.RestartConfig{
		BackoffInitial: time.Millisecond,
		Window:         200 * time.Millisecond,
	})
	defer p.Shutdown()

	if err := p.Post(func() {}).Wait(); err != nil {
		t.Fatalf("healthy post: %v", err)
	}
	// Kill one worker: Goexit defeats panic isolation, the goroutine dies.
	if err := p.Post(kill).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("killed task err = %v", err)
	}
	// Wait on the respawn count too: the killed task's completion finishes
	// before the dying worker is subtracted, so Workers() can still read its
	// pre-crash 2 here.
	waitFor(t, 2*time.Second, func() bool {
		return p.Restarts().Total == 1 && p.Workers() == 2
	}, "worker respawn")
	if h := health(p); h.StatusValue() != supervise.Degraded || h.Restarts != 1 || h.LastError == "" {
		t.Fatalf("health after respawn = %+v", h)
	}
	// After a quiet window the target reads healthy again.
	waitFor(t, 2*time.Second, func() bool { return health(p).StatusValue() == supervise.Healthy }, "recovery")
	if err := p.Post(func() {}).Wait(); err != nil {
		t.Fatalf("post after respawn: %v", err)
	}
}

func TestBudgetExhaustionFailsFast(t *testing.T) {
	var reg gid.Registry
	p := executor.NewSupervisedPool("w", 1, &reg, executor.RestartConfig{
		MaxRestarts:    2,
		Window:         time.Minute, // respawns never age out during the test
		BackoffInitial: time.Millisecond,
	})
	defer p.Shutdown()
	buf := trace.NewBuffer(4096)
	t.Cleanup(trace.Use(buf))

	// Each kill consumes one respawn; the third exhausts the budget.
	for i := 0; i < 3; i++ {
		waitFor(t, 2*time.Second, func() bool { return p.Workers() == 1 }, "worker up")
		if err := p.Post(kill).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
			t.Fatalf("kill %d err = %v", i, err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return health(p).StatusValue() == supervise.Down }, "target down")
	rejected := p.Stats().Rejected
	if err := p.Post(func() {}).Wait(); !errors.Is(err, executor.ErrTargetDown) {
		t.Fatalf("post after down err = %v", err)
	}
	if buf.CountOp(trace.OpTargetDown) == 0 {
		t.Fatal("no OpTargetDown traced")
	}
	if got := p.Stats().Rejected; got != rejected+1 {
		t.Fatalf("Rejected = %d after a post to a down pool, want %d", got, rejected+1)
	}
	// Typed rejection must be immediate, not a hang.
	done := make(chan error, 1)
	go func() { done <- p.Post(func() {}).Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, executor.ErrTargetDown) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("post against down target hung")
	}
}

func TestShutdownStopsSupervision(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	p := executor.NewSupervisedPool("w", 1, &reg, executor.RestartConfig{})
	if err := p.Post(func() {}).Wait(); err != nil {
		t.Fatal(err)
	}
	p.Shutdown()
	p.Shutdown() // idempotent
	if err := p.Post(func() {}).Wait(); !errors.Is(err, executor.ErrShutdown) {
		t.Fatalf("post after shutdown: %v, want ErrShutdown", err)
	}
}

// TestShutdownInterruptsBackoff: a pool waiting out a respawn backoff keeps
// the target running — a post queues for the worker to come — and Shutdown
// does not wait for an hour's backoff: the respawn is a timer, not a
// goroutine, and the Grow it would run is a no-op once the pool is stopped.
// The queued post then fails with the pool's shutdown error.
func TestShutdownInterruptsBackoff(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	p := executor.NewSupervisedPool("w", 1, &reg, executor.RestartConfig{
		BackoffInitial: time.Hour,
		BackoffMax:     time.Hour,
	})
	if err := p.Post(kill).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("killed task err = %v", err)
	}
	poll.Until(t, "the respawn scheduled", func() bool { return p.Restarts().Total == 1 && p.Workers() == 0 })
	queued := p.Post(func() { t.Error("a task ran with no worker") })
	if queued.Finished() {
		t.Fatalf("post during backoff finished at once: %v, want it queued", queued.Err())
	}
	start := time.Now()
	p.Shutdown()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Shutdown took %v during a 1 h backoff", d)
	}
	if err := queued.Wait(); !errors.Is(err, executor.ErrShutdown) {
		t.Fatalf("queued post after Shutdown: %v, want ErrShutdown", err)
	}
}

// TestRespawnKeepsServing: a one-for-one respawn repairs one worker while the
// others keep serving, so a post made during its backoff runs on a survivor
// instead of waiting for the respawn. The target stays up and reads
// Degraded.
func TestRespawnKeepsServing(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	p := executor.NewSupervisedPool("w", 2, &reg, executor.RestartConfig{
		BackoffInitial: time.Hour,
		BackoffMax:     time.Hour,
	})
	defer p.Shutdown()
	if err := p.Post(kill).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("killed task err = %v", err)
	}
	poll.Until(t, "the respawn scheduled", func() bool { return p.Restarts().Total == 1 })
	if err := p.Post(func() {}).Wait(); err != nil {
		t.Fatalf("post during a respawn's backoff: %v, want the surviving worker to run it", err)
	}
	if h := health(p); h.StatusValue() != supervise.Degraded {
		t.Fatalf("health during a respawn = %+v, want degraded", h)
	}
}

// TestRespawnInheritsCrashedWorkerQueue: the pool's queue outlives its last
// worker, and the worker a respawn's Grow adds drains it. A supervised pool
// respawning a sole worker therefore hands the replacement the still-queued
// tasks: they complete instead of stranding or failing.
func TestRespawnInheritsCrashedWorkerQueue(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	p := executor.NewSupervisedPool("w", 1, &reg, executor.RestartConfig{
		BackoffInitial: time.Millisecond,
		Window:         200 * time.Millisecond,
	})
	defer p.Shutdown()

	// Gate the sole worker, queue work behind it, then kill it.
	crash := make(chan struct{})
	running := make(chan struct{})
	gate := p.Post(func() { close(running); <-crash; runtime.Goexit() })
	<-running
	const n = 10
	var comps []*executor.Completion
	for i := 0; i < n; i++ {
		comps = append(comps, p.Post(func() {}))
	}
	close(crash)
	if err := gate.Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("gate err = %v, want ErrWorkerCrashed", err)
	}
	// The respawned worker must drain the queue it inherited.
	for _, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatalf("queued task lost across respawn: %v", err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return p.Workers() == 1 }, "worker respawn")
}
