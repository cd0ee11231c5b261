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

// newSupervised supervises a fresh pool of workers, returning both.
func newSupervised(t *testing.T, reg *gid.Registry, workers int, opts Options) (*Supervisor, *executor.WorkerPool) {
	t.Helper()
	pool := executor.NewWorkerPool("w", workers, reg)
	s, err := New("w", pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, pool
}

func TestRespawnReplacesCrashedWorker(t *testing.T) {
	var reg gid.Registry
	s, pool := newSupervised(t, &reg, 2, Options{
		BackoffInitial: time.Millisecond,
		Window:         200 * time.Millisecond,
	})
	defer s.Shutdown()

	if err := s.Post(func() {}).Wait(); err != nil {
		t.Fatalf("healthy post: %v", err)
	}
	// Kill one worker: Goexit defeats panic isolation, the goroutine dies.
	if err := s.Post(func() { runtime.Goexit() }).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("killed task err = %v", err)
	}
	// Wait on the respawn count too: the killed task's completion finishes
	// before the dying worker is subtracted, so Workers() can still read its
	// pre-crash 2 here.
	waitFor(t, 2*time.Second, func() bool {
		return s.Stats().Respawns == 1 && pool.Workers() == 2
	}, "worker respawn")
	if got := s.Stats().Respawns; got != 1 {
		t.Fatalf("respawns = %d", got)
	}
	if h := s.Health(); h.StatusValue() != Degraded || h.Restarts != 1 {
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
	s, pool := newSupervised(t, &reg, 1, Options{
		MaxRestarts:    2,
		Window:         time.Minute, // respawns never age out during the test
		BackoffInitial: time.Millisecond,
	})
	defer s.Shutdown()
	buf := trace.NewBuffer(4096)
	t.Cleanup(trace.Use(buf))

	// Each kill consumes one respawn; the third exhausts the budget.
	for i := 0; i < 3; i++ {
		waitFor(t, 2*time.Second, func() bool { return pool.Workers() == 1 }, "worker up")
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

// TestNewFactoryErrorPropagates: New rejects an executor whose Unwrap chain
// ends at no pool, since a respawn has nothing to grow.
func TestNewFactoryErrorPropagates(t *testing.T) {
	var reg gid.Registry
	pool := executor.NewWorkerPool("w", 1, &reg)
	defer pool.Shutdown()
	if _, err := New("w", opaque{pool}, Options{}); err == nil {
		t.Fatal("New accepted an executor that hides its pool")
	}
}

// opaque forwards to a pool without exposing it.
type opaque struct{ executor.Executor }

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
	s, _ := newSupervised(t, &reg, 1, Options{})
	if err := s.Post(func() {}).Wait(); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	s.Shutdown() // idempotent
	if err := s.Post(func() {}).Wait(); err == nil {
		t.Fatal("post after shutdown succeeded")
	}
}

// TestShutdownInterruptsBackoff: a supervisor waiting out a respawn backoff
// keeps the target running — a post queues for the worker to come — and
// Shutdown cuts the wait short instead of joining a loop that would sleep for
// an hour; the queued post then fails with the pool's shutdown error.
func TestShutdownInterruptsBackoff(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	s, _ := newSupervised(t, &reg, 1, Options{
		BackoffInitial: time.Hour,
		BackoffMax:     time.Hour,
	})
	if err := s.Post(func() { runtime.Goexit() }).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("killed task err = %v", err)
	}
	poll.UntilBlockedIn(t, "(*Supervisor).sleep")
	queued := s.Post(func() { t.Error("a task ran with no worker") })
	if queued.Finished() {
		t.Fatalf("post during backoff finished at once: %v, want it queued", queued.Err())
	}
	start := time.Now()
	s.Shutdown()
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
	s, _ := newSupervised(t, &reg, 2, Options{
		BackoffInitial: time.Hour,
		BackoffMax:     time.Hour,
	})
	defer s.Shutdown()
	if err := s.Post(func() { runtime.Goexit() }).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("killed task err = %v", err)
	}
	poll.UntilBlockedIn(t, "(*Supervisor).sleep")
	if err := s.Post(func() {}).Wait(); err != nil {
		t.Fatalf("post during a respawn's backoff: %v, want the surviving worker to run it", err)
	}
	if h := s.Health(); h.StatusValue() != Degraded {
		t.Fatalf("health during a respawn = %+v, want degraded", h)
	}
}

// TestRespawnInheritsCrashedWorkerQueue: the pool's queue outlives its last
// worker, and the worker Grow adds — Grow is what a respawn calls — drains
// it. A supervisor respawning a sole worker therefore hands the
// replacement the still-queued tasks: they complete instead of stranding or
// failing.
func TestRespawnInheritsCrashedWorkerQueue(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	s, pool := newSupervised(t, &reg, 1, Options{
		BackoffInitial: time.Millisecond,
		Window:         200 * time.Millisecond,
	})
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
	waitFor(t, 2*time.Second, func() bool { return pool.Workers() == 1 }, "worker respawn")
}
