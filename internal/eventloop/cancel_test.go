package eventloop

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	// The hold and the flush: the skipped event reached neither the counter,
	// the observer nor the nesting depth.
	if d, o := l.Dispatched(), observed.Load(); d != 2 || o != 2 || l.Depth() != 0 {
		t.Fatalf("Dispatched = %d, observed = %d, Depth = %d after a skipped event", d, o, l.Depth())
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

// TestDepthSkipsCancelledEvents: a node whose completion was cancelled in
// the queue is not a dispatch, so the nesting depth never counts it — not even
// for the instant between its pop and its lost claim. A goroutine polls Depth
// while the EDT of an otherwise idle loop skips 10 000 cancelled nodes; it
// must read 0 throughout.
func TestDepthSkipsCancelledEvents(t *testing.T) {
	const n = 10000
	l := New("skip", &gid.Registry{})
	defer l.Stop()
	for i := 0; i < n; i++ {
		if !l.Post(func() { t.Error("cancelled event ran") }).Cancel(errRevoked) {
			t.Fatal("Cancel of an event queued on an unstarted loop returned false")
		}
	}
	polling := make(chan struct{})
	seen := make(chan int)
	go func() {
		close(polling)
		reads := 0
		for l.Len() > 0 {
			if l.Depth() != 0 {
				reads++
			}
		}
		seen <- reads
	}()
	<-polling
	l.Start()
	if reads := <-seen; reads != 0 {
		t.Fatalf("Depth read nonzero %d times while the EDT only skipped cancelled events", reads)
	}
	if d := l.Dispatched(); d != 0 {
		t.Fatalf("Dispatched = %d after skipping only cancelled events", d)
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
	if got := l.Dispatched(); got != bodies+1 {
		t.Fatalf("Dispatched = %d with %d handlers run: a skipped event was counted", got, bodies+1)
	}
}

// TestCancelDelayedEvent: a PostDelayed event is cancellable before its timer
// fires. The handler never runs — not when the timer fires, not when Stop
// fails the loop's remaining timers — and the verdict stays Cancel's.
func TestCancelDelayedEvent(t *testing.T) {
	l := New("edt", &gid.Registry{})
	l.Start()
	release := holdEDT(l)
	fired := l.PostDelayed(time.Millisecond, func() { t.Error("cancelled delayed event ran") })
	stopped := l.PostDelayed(time.Hour, func() { t.Error("cancelled delayed event ran") })
	for _, c := range []*executor.Completion{fired, stopped} {
		if !c.Cancel(errRevoked) {
			t.Fatal("Cancel of a delayed event returned false")
		}
	}
	// The short timer has fired and queued its cancelled node behind the hold.
	poll.Until(t, "the short timer to queue its event", func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.delayed) == 1 && l.q.Len() == 1
	})
	release()
	l.Post(func() {}).Wait()
	l.Stop()
	for _, c := range []*executor.Completion{fired, stopped} {
		if err := c.Wait(); err != errRevoked {
			t.Fatalf("err = %v, want the error Cancel was given", err)
		}
	}
	if got := l.Dispatched(); got != 2 {
		t.Fatalf("Dispatched = %d, want only the hold and the flush", got)
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
