package executor

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/testutil/poll"
	"repro/internal/trace"
)

// TestCancelVsRunRace races Completion.Cancel against the worker picking the
// task up. Exactly one side must win each round: either the body runs and the
// completion is nil-errored, or Cancel returns true, the body never runs and
// the completion carries Cancel's error. Run with -race.
func TestCancelVsRunRace(t *testing.T) {
	p := NewWorkerPool("race", 4, nil)
	defer p.Shutdown()

	const rounds = 10000
	var wg sync.WaitGroup
	bodies := int64(0)
	for i := 0; i < rounds; i++ {
		var ran, cancelled atomic.Bool
		comp := p.Post(func() { ran.Store(true) })
		wg.Add(1)
		go func() {
			defer wg.Done()
			cancelled.Store(comp.Cancel(errRevoked))
		}()
		err := comp.Wait()
		wg.Wait()
		// A finished completion's body has returned or will never start.
		if ran.Load() == cancelled.Load() || cancelled.Load() != (err == errRevoked) {
			t.Fatalf("round %d: ran=%v cancelled=%v err=%v", i, ran.Load(), cancelled.Load(), err)
		}
		if ran.Load() {
			bodies++
		}
	}
	if st := p.Stats(); st.Completed != bodies {
		t.Fatalf("Completed = %d with %d bodies run: a skipped task was counted", st.Completed, bodies)
	}
}

// TestUnrunTasksReturnTheirSpans: a node that took a span id at Enqueued and
// never reaches its run span — cancelled and skipped at dequeue, drained by
// FailPending, rejected by a shut-down pool — ends it, so a sink's open-span
// table is empty once the queue has drained.
func TestUnrunTasksReturnTheirSpans(t *testing.T) {
	sink := metrics.NewSpanSink(nil)
	t.Cleanup(trace.Use(sink))
	p := NewWorkerPool("spans", 1, nil)
	hold := func() (release func()) {
		gate, busy := make(chan struct{}), make(chan struct{})
		p.Post(func() { close(busy); <-gate })
		<-busy
		return func() { close(gate) }
	}
	drained := func(what string) {
		t.Helper()
		p.Post(func() {}).Wait()
		poll.Until(t, "open spans to drain after "+what, func() bool { return sink.Open() == 0 })
	}

	release := hold()
	for i := 0; i < 10; i++ {
		p.Post(func() { t.Error("cancelled task ran") }).Cancel(errRevoked)
	}
	release()
	drained("cancellation")

	release = hold()
	for i := 0; i < 10; i++ {
		p.Post(func() { t.Error("failed task ran") })
	}
	p.Post(func() {}).Cancel(errRevoked)
	if n := p.FailPending(errRevoked); n != 10 {
		t.Fatalf("FailPending = %d, want the 10 tasks nobody had cancelled", n)
	}
	release()
	drained("FailPending")

	p.Shutdown()
	for i := 0; i < 10; i++ {
		p.Post(func() { t.Error("rejected task ran") })
	}
	if n := sink.Open(); n != 0 {
		t.Fatalf("%d spans open after 10 rejected posts", n)
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
