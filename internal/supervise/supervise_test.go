package supervise

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/trace"

	"repro/internal/testutil/leakcheck"

	"repro/internal/testutil/poll"
)

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	poll.UntilFor(t, d, msg, cond)
}

func poolFactory(t *testing.T, reg *gid.Registry, workers int) Factory {
	t.Helper()
	return func() (executor.Executor, error) {
		return executor.NewWorkerPool("w", workers, reg), nil
	}
}

func TestRespawnReplacesCrashedWorker(t *testing.T) {
	var reg gid.Registry
	s, err := New("w", poolFactory(t, &reg, 2), Options{
		RespawnWorkers: true,
		BackoffInitial: time.Millisecond,
		Window:         200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	if err := s.Post(func() {}).Wait(); err != nil {
		t.Fatalf("healthy post: %v", err)
	}
	// Kill one worker: Goexit defeats panic isolation, the goroutine dies.
	if err := s.Post(func() { runtime.Goexit() }).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("killed task err = %v", err)
	}
	pool := base(s).(*executor.WorkerPool)
	// Wait on the respawn count too: the killed task's completion finishes
	// before the dying worker is subtracted, so Workers() can still read its
	// pre-crash 2 here.
	waitFor(t, 2*time.Second, func() bool {
		return s.Stats().Respawns == 1 && pool.Workers() == 2
	}, "worker respawn")
	if got := s.Stats().Respawns; got != 1 {
		t.Fatalf("respawns = %d", got)
	}
	if h := s.Health(); h.StatusValue() != Degraded || h.Generation != 0 {
		t.Fatalf("health after respawn = %+v", h)
	}
	// After a quiet window the target reads healthy again.
	waitFor(t, 2*time.Second, func() bool { return s.Health().StatusValue() == Healthy }, "recovery")
	if err := s.Post(func() {}).Wait(); err != nil {
		t.Fatalf("post after respawn: %v", err)
	}
}

func TestBudgetExhaustionFailsFast(t *testing.T) {
	var reg gid.Registry
	s, err := New("w", poolFactory(t, &reg, 1), Options{
		MaxRestarts:    2,
		Window:         time.Minute, // restarts never age out during the test
		BackoffInitial: time.Millisecond,
		RespawnWorkers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	buf := trace.NewBuffer(4096)
	t.Cleanup(trace.Use(buf))

	// Each kill consumes one respawn; the third exhausts the budget.
	for i := 0; i < 3; i++ {
		pool := base(s).(*executor.WorkerPool)
		waitFor(t, 2*time.Second, func() bool { return pool.Workers() == 1 }, "worker up")
		waitFor(t, 2*time.Second, func() bool { return s.Health().State == Running.String() }, "running")
		if err := s.Post(func() { runtime.Goexit() }).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
			t.Fatalf("kill %d err = %v", i, err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return s.Health().StatusValue() == Down }, "target down")
	if err := s.Post(func() {}).Wait(); !errors.Is(err, ErrTargetDown) {
		t.Fatalf("post after down err = %v", err)
	}
	if buf.CountOp(trace.OpTargetDown) == 0 {
		t.Fatal("no OpTargetDown traced")
	}
	if got := s.Stats().FailFast; got == 0 {
		t.Fatal("fail-fast counter not bumped")
	}
	// Typed rejection must be immediate, not a hang.
	done := make(chan error, 1)
	go func() { done <- s.Post(func() {}).Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTargetDown) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("post against down target hung")
	}
}

func TestFactoryErrorMarksDown(t *testing.T) {
	var reg gid.Registry
	boom := errors.New("no capacity")
	built := 0 // New and the supervisor loop call the factory one at a time
	factory := func() (executor.Executor, error) {
		if built++; built > 1 {
			return nil, boom
		}
		return executor.NewWorkerPool("w", 1, &reg), nil
	}
	s, err := New("w", factory, Options{BackoffInitial: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	// A kill without RespawnWorkers is a full restart, whose factory fails.
	if err := s.Post(func() { runtime.Goexit() }).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("err = %v", err)
	}
	waitFor(t, 2*time.Second, func() bool { return s.Health().StatusValue() == Down }, "down on factory error")
	if err := s.Post(func() {}).Wait(); !errors.Is(err, ErrTargetDown) {
		t.Fatalf("err = %v", err)
	}
}

func TestNewFactoryErrorPropagates(t *testing.T) {
	_, err := New("w", func() (executor.Executor, error) {
		return nil, errors.New("nope")
	}, Options{})
	if err == nil {
		t.Fatal("New succeeded with failing factory")
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	s := &Supervisor{opts: Options{BackoffInitial: 10 * time.Millisecond, BackoffMax: 60 * time.Millisecond}}
	want := []time.Duration{10, 20, 40, 60, 60}
	for i, w := range want {
		if got := s.backoff(i + 1); got != w*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestShutdownStopsSupervision(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	s, err := New("w", poolFactory(t, &reg, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Post(func() {}).Wait(); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	s.Shutdown() // idempotent
	if err := s.Post(func() {}).Wait(); err == nil {
		t.Fatal("post after shutdown succeeded")
	}
}

// TestShutdownInterruptsBackoff: a supervisor waiting out a restart backoff
// answers posts with ErrRestarting, and Shutdown cuts the wait short instead
// of joining a loop that would sleep for an hour.
func TestShutdownInterruptsBackoff(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	s, err := New("w", poolFactory(t, &reg, 1), Options{
		BackoffInitial: time.Hour,
		BackoffMax:     time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.ReportFailure(errors.New("synthetic failure"))
	poll.UntilBlockedIn(t, "(*Supervisor).sleep")
	if err := s.Post(func() {}).Wait(); !errors.Is(err, ErrRestarting) {
		t.Fatalf("post during backoff: %v, want ErrRestarting", err)
	}
	s.Shutdown()
	if h := s.Health(); h.StatusValue() != Down {
		t.Fatalf("health after a shutdown mid-restart = %+v, want down", h)
	}
}

// TestRespawnKeepsServing: a one-for-one respawn repairs one worker while the
// others keep serving, so a post made during its backoff runs on a survivor
// instead of failing with ErrRestarting. The target stays Running and reads
// Degraded.
func TestRespawnKeepsServing(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	s, err := New("w", poolFactory(t, &reg, 2), Options{
		RespawnWorkers: true,
		BackoffInitial: time.Hour,
		BackoffMax:     time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	if err := s.Post(func() { runtime.Goexit() }).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("killed task err = %v", err)
	}
	poll.UntilBlockedIn(t, "(*Supervisor).sleep")
	if err := s.Post(func() {}).Wait(); err != nil {
		t.Fatalf("post during a respawn's backoff: %v, want the surviving worker to run it", err)
	}
	if h := s.Health(); h.State != Running.String() || h.StatusValue() != Degraded {
		t.Fatalf("health during a respawn = %+v, want running and degraded", h)
	}
}

// TestRespawnInheritsCrashedWorkerQueue: the pool's queue outlives its last
// worker, and the worker Grow adds — Grow is what RespawnWorkers calls —
// drains it. A supervisor respawning a sole worker therefore hands the
// replacement the still-queued tasks: they complete instead of stranding or
// failing.
func TestRespawnInheritsCrashedWorkerQueue(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	s, err := New("w", poolFactory(t, &reg, 1), Options{
		RespawnWorkers: true,
		BackoffInitial: time.Millisecond,
		Window:         200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	// Gate the sole worker, queue work behind it, then kill it.
	crash := make(chan struct{})
	running := make(chan struct{})
	gate := s.Post(func() { close(running); <-crash; runtime.Goexit() })
	<-running
	const n = 10
	var comps []*executor.Completion
	for i := 0; i < n; i++ {
		comps = append(comps, s.Post(func() {}))
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
	pool := base(s).(*executor.WorkerPool)
	waitFor(t, 2*time.Second, func() bool { return pool.Workers() == 1 }, "worker respawn")
}
