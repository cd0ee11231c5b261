package executor

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil/poll"
)

// TestPostCancellableCancelVsRunRace races cancel() against the worker
// picking the task up. Exactly one side must win each round: either the
// body runs and the completion is nil-errored, or it never runs and the
// completion carries ErrCanceled. Run with -race.
func TestPostCancellableCancelVsRunRace(t *testing.T) {
	p := NewWorkerPool("race", 4, nil)
	defer p.Shutdown()

	const rounds = 500
	var ran, cancelled atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		comp, cancel := p.PostCancellable(func() { ran.Add(1) })
		wg.Add(1)
		go func() {
			defer wg.Done()
			if cancel() {
				cancelled.Add(1)
			}
		}()
		if err := comp.Wait(); err != nil && !errors.Is(err, ErrCanceled) {
			t.Errorf("unexpected completion error: %v", err)
		}
	}
	wg.Wait()
	// Give in-flight bodies a moment to finish bumping the counter.
	poll.Wait(2*time.Second, func() bool { return ran.Load()+cancelled.Load() == rounds })
	if got := ran.Load() + cancelled.Load(); got != rounds {
		t.Fatalf("ran(%d) + cancelled(%d) = %d, want exactly %d",
			ran.Load(), cancelled.Load(), got, rounds)
	}
}

// TestStatsPanicCount checks the cumulative panic counter, both for tasks
// run by workers and tasks helped via TryRunPending.
func TestStatsPanicCount(t *testing.T) {
	p := NewWorkerPool("panicky", 1, nil)
	defer p.Shutdown()

	c := p.Post(func() { panic("boom") })
	var pe *PanicError
	if err := c.Wait(); !errors.As(err, &pe) {
		t.Fatalf("Err = %v, want *PanicError", err)
	}

	// Park the worker, queue a panicking task, and help it from here.
	gate := make(chan struct{})
	busy := make(chan struct{})
	p.Post(func() { close(busy); <-gate })
	<-busy
	helped := p.Post(func() { panic("helped boom") })
	poll.Until(t, "queued task to become helpable", p.TryRunPending)
	close(gate)
	if err := helped.Wait(); !errors.As(err, &pe) {
		t.Fatalf("helped Err = %v, want *PanicError", err)
	}
	if st := p.Stats(); st.Panics != 2 {
		t.Fatalf("Stats.Panics = %d, want 2", st.Panics)
	}
}
