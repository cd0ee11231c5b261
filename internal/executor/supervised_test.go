package executor

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
)

func TestBackoffDoublesAndCaps(t *testing.T) {
	c := RestartConfig{BackoffInitial: 10 * time.Millisecond, BackoffMax: 60 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 60, 60}
	for i, w := range want {
		if got := c.backoff(i + 1); got != w*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

// TestLifecycleStopDrainsQueuedTask pins the drain re-check of workerLoop
// (defect viii): a worker whose pop found the queue empty and who only then
// sees the stop must look at the queue again, because a Post can land in
// between. The worker is held right there, a task is posted and Shutdown is
// started; released, the worker must run the task rather than exit and leave
// it to Shutdown's ErrShutdown backstop. A pool going down leaves the loop
// through the same check.
func TestLifecycleStopDrainsQueuedTask(t *testing.T) {
	defer leakcheck.Check(t)()
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	p := newIdleHookedPool(func() { once.Do(func() { close(held); <-release }) })
	<-held
	ran := false
	c := p.Post(func() { ran = true })
	stopped := make(chan struct{})
	go func() { p.Shutdown(); close(stopped) }()
	poll.Until(t, "the stop published", func() bool { return p.stopped.Load() != nil })
	poll.UntilBlockedIn(t, "(*WorkerPool).Shutdown")
	close(release)
	<-stopped
	if err := c.Wait(); err != nil || !ran {
		t.Fatalf("task posted before Shutdown: ran=%v err=%v, want it run", ran, err)
	}
}

// TestWorkersCountsEveryExit: Workers is the number of worker goroutines
// alive, so a worker that leaves normally — the drain after Shutdown, or
// after a supervised pool went down — is taken off it as a crashed one is.
func TestWorkersCountsEveryExit(t *testing.T) {
	p := NewWorkerPool("exits", 3, nil)
	p.Shutdown()
	if n := p.Workers(); n != 0 {
		t.Errorf("Workers = %d after Shutdown joined all three, want 0", n)
	}

	// One respawn in the window: the second crash takes the pool down, and
	// the survivor drains and leaves.
	d := NewSupervisedPool("down", 2, nil, RestartConfig{MaxRestarts: 1, BackoffInitial: time.Hour})
	defer d.Shutdown()
	for i := 0; i < 2; i++ {
		if err := d.Post(func() { runtime.Goexit() }).Wait(); !errors.Is(err, ErrWorkerCrashed) {
			t.Fatalf("kill %d: %v, want ErrWorkerCrashed", i, err)
		}
	}
	poll.Until(t, "the pool down", func() bool { return d.Restarts().Down })
	poll.Until(t, "the survivor gone", func() bool { return d.Workers() == 0 })
}
