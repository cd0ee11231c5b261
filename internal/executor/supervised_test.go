package executor

import (
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
