package eventloop

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/metrics"
	"repro/internal/testutil/poll"
	"repro/internal/trace"
)

var errRevoked = errors.New("revoked by the test")

// holdEDT occupies the dispatch goroutine so later posts stay queued.
func holdEDT(l *Loop) (release func()) {
	gate, busy := make(chan struct{}), make(chan struct{})
	l.Post(func() { close(busy); <-gate })
	<-busy
	return func() { close(gate) }
}

// TestCancelQueuedEvent is the executor's cancel table on the EDT: a queued
// event is revoked with the error Cancel was given and skipped at dequeue
// without counting as a dispatch; a started, finished or rejected one is not.
func TestCancelQueuedEvent(t *testing.T) {
	l := newLoop(t)
	var observed atomic.Int64
	l.SetObserver(func(DispatchInfo) { observed.Add(1) })

	release := holdEDT(l)
	c := l.Post(func() { t.Error("cancelled event ran") })
	if !c.Cancel(errRevoked) || c.Cancel(errors.New("again")) {
		t.Fatal("want the first Cancel of a queued event true and the second false")
	}
	if err := c.Wait(); err != errRevoked {
		t.Fatalf("err = %v, want the error Cancel was given", err)
	}
	release()
	l.Post(func() {}).Wait()
	// The hold and the flush: the skipped event reached neither the counter
	// nor the observer.
	if d, o := dispatched(l), observed.Load(); d != 2 || o != 2 {
		t.Fatalf("dispatched = %d, observed = %d after a skipped event", d, o)
	}

	started, gate := make(chan struct{}), make(chan struct{})
	c = l.Post(func() { close(started); <-gate })
	<-started
	if c.Cancel(errRevoked) {
		t.Fatal("Cancel of a running handler returned true")
	}
	close(gate)
	if err := c.Wait(); err != nil || c.Cancel(errRevoked) || c.Err() != nil {
		t.Fatalf("Cancel after completion took effect: wait = %v, err = %v", err, c.Err())
	}

	l.Stop()
	if c = l.Post(func() {}); c.Cancel(errRevoked) || !errors.Is(c.Err(), executor.ErrShutdown) {
		t.Fatalf("Cancel of a rejected event took effect: err = %v", c.Err())
	}
}

// TestCancelledEventsAreNotDispatched: a node whose completion was cancelled in
// the queue is not a dispatch. The EDT skips 10 000 cancelled nodes queued
// behind a held handler; only the hold and the flush behind them count, in
// the completed counter and for the observer, and the queue ends empty.
func TestCancelledEventsAreNotDispatched(t *testing.T) {
	const n = 10000
	l := newLoop(t)
	var observed atomic.Int64
	l.SetObserver(func(DispatchInfo) { observed.Add(1) })
	release := holdEDT(l)
	for i := 0; i < n; i++ {
		if !l.Post(func() { t.Error("cancelled event ran") }).Cancel(errRevoked) {
			t.Fatal("Cancel of an event queued behind a held handler returned false")
		}
	}
	release()
	l.Post(func() {}).Wait()
	if d, o, q := dispatched(l), observed.Load(), l.Stats().QueueDepth; d != 2 || o != 2 || q != 0 {
		t.Fatalf("dispatched = %d, observed = %d, QueueDepth = %d after skipping %d cancelled events", d, o, q, n)
	}
}

// TestCancelVsDispatchRace: exactly one of {handler ran, Cancel returned
// true} per event. Run with -race.
func TestCancelVsDispatchRace(t *testing.T) {
	l := newLoop(t)
	var wg sync.WaitGroup
	bodies := int64(0)
	for i := 0; i < 10000; i++ {
		var ran, cancelled atomic.Bool
		c := l.Post(func() { ran.Store(true) })
		wg.Add(1)
		go func() {
			defer wg.Done()
			cancelled.Store(c.Cancel(errRevoked))
		}()
		err := c.Wait()
		wg.Wait()
		if ran.Load() == cancelled.Load() || cancelled.Load() != (err == errRevoked) {
			t.Fatalf("round %d: ran=%v cancelled=%v err=%v", i, ran.Load(), cancelled.Load(), err)
		}
		if ran.Load() {
			bodies++
		}
	}
	l.Post(func() {}).Wait()
	if got := dispatched(l); got != bodies+1 {
		t.Fatalf("dispatched = %d with %d handlers run: a skipped event was counted", got, bodies+1)
	}
}

// TestUnrunEventsReturnTheirSpans: see the executor's test of the same name.
func TestUnrunEventsReturnTheirSpans(t *testing.T) {
	sink := metrics.NewSpanSink(nil)
	t.Cleanup(trace.Use(sink))
	l := New("edt", &gid.Registry{})
	l.Start()
	release := holdEDT(l)
	for i := 0; i < 10; i++ {
		l.Post(func() { t.Error("cancelled event ran") }).Cancel(errRevoked)
	}
	release()
	l.Post(func() {}).Wait()
	poll.Until(t, "open spans to drain after cancellation", func() bool { return sink.Open() == 0 })
	l.Stop()
	for i := 0; i < 10; i++ {
		l.Post(func() { t.Error("rejected event ran") })
	}
	if n := sink.Open(); n != 0 {
		t.Fatalf("%d spans open after 10 rejected posts", n)
	}
}
