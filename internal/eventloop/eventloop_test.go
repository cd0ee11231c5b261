package eventloop

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/sanitize"

	"repro/internal/testutil/leakcheck"

	"repro/internal/testutil/poll"
	"repro/internal/testutil/raceflag"
)

func newLoop(t *testing.T) *Loop {
	t.Helper()
	var reg gid.Registry
	l := New("edt", &reg)
	l.Start()
	t.Cleanup(l.Stop)
	return l
}

// dispatched returns how many of the test's events l has run: under
// -tags=ompsan, Start runs one event of its own, which binds the home stamp.
func dispatched(l *Loop) int64 {
	n := l.Stats().Completed
	if sanitize.Enabled {
		n--
	}
	return n
}

func TestDispatchOrderFIFO(t *testing.T) {
	l := newLoop(t)
	var mu sync.Mutex
	var order []int
	var comps []*executor.Completion
	for i := 0; i < 100; i++ {
		i := i
		comps = append(comps, l.Post(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}))
	}
	for _, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("events dispatched out of order: order[%d]=%d", i, v)
		}
	}
	if got := dispatched(l); got != 100 {
		t.Fatalf("dispatched = %d", got)
	}
}

func TestOwnsAndConfinement(t *testing.T) {
	l := newLoop(t)
	if l.Owns() {
		t.Fatal("external goroutine must not own the loop")
	}
	c := l.Post(func() {
		if !l.Owns() {
			t.Error("handler must run on the dispatch goroutine")
		}
	})
	c.Wait()
	if w := l.Workers(); w != 1 {
		t.Fatalf("Workers = %d, want the one dispatch goroutine", w)
	}
}

func TestTryRunPendingRefusedOffEDT(t *testing.T) {
	l := newLoop(t)
	// Block the EDT so an event stays queued.
	block := make(chan struct{})
	started := make(chan struct{})
	l.Post(func() { close(started); <-block })
	<-started
	l.Post(func() {})
	if l.TryRunPending() {
		t.Fatal("TryRunPending ran an event off the EDT — confinement broken")
	}
	close(block)
}

// pumpUntil is the await barrier the way core.AwaitDone drives it on the EDT:
// dispatch queued events, sleeping in WaitPending while there are none, until
// done fires.
func pumpUntil(l *Loop, done <-chan struct{}) {
	for {
		select {
		case <-done:
			return
		default:
		}
		if !l.TryRunPending() {
			l.WaitPending(done)
		}
	}
}

func TestNestedDispatchFromHandlerIsFIFO(t *testing.T) {
	// The crux of the await mode: while a handler waits, the EDT keeps
	// dispatching other events (Figure 1(ii) behaviour), in post order.
	l := newLoop(t)
	var got []string
	var mu sync.Mutex
	log := func(s string) { mu.Lock(); got = append(got, s); mu.Unlock() }

	done := make(chan struct{})
	outer := l.Post(func() {
		log("outer-start")
		pumpUntil(l, done)
		log("outer-end")
	})
	// These events arrive while the outer handler is "awaiting"; they must
	// be dispatched before outer-end.
	c1 := l.Post(func() { log("inner-1") })
	c2 := l.Post(func() { log("inner-2") })
	c1.Wait()
	c2.Wait()
	close(done)
	outer.Wait()

	want := []string{"outer-start", "inner-1", "inner-2", "outer-end"}
	if len(got) != len(want) {
		t.Fatalf("log = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("log = %v, want %v", got, want)
		}
	}
}

// TestNestedDispatchDepth: an event pumped from inside an awaiting handler
// runs nested in it, on the same goroutine. The handlers count their own
// nesting: depth is touched only on the EDT, so it needs no lock.
func TestNestedDispatchDepth(t *testing.T) {
	l := newLoop(t)
	depth := 0
	handler := func(fn func()) func() {
		return func() {
			depth++
			defer func() { depth-- }()
			fn()
		}
	}
	depths := make(chan int, 2)
	done := make(chan struct{})
	outer := l.Post(handler(func() {
		pumpUntil(l, done)
	}))
	inner := l.Post(handler(func() {
		depths <- depth
		close(done)
	}))
	inner.Wait()
	outer.Wait()
	if d := <-depths; d != 2 {
		t.Fatalf("nested dispatch depth = %d, want 2", d)
	}
}

// TestWaitPendingOnEDTReturnsFalseOnCancel: a handler sleeping in WaitPending
// on an empty queue stays there until cancel fires, and is then told there is
// nothing to run. A true return is only a hint (a stale wake token is legal),
// so the handler re-checks like the barrier does.
func TestWaitPendingOnEDTReturnsFalseOnCancel(t *testing.T) {
	l := newLoop(t)
	cancel := make(chan struct{})
	returned := make(chan struct{})
	l.Post(func() {
		for l.WaitPending(cancel) {
			l.TryRunPending()
		}
		close(returned)
	})
	poll.UntilBlockedIn(t, "(*WorkerPool).WaitPending")
	select {
	case <-returned:
		t.Fatal("WaitPending returned false before cancel, with nothing queued")
	default:
	}
	close(cancel)
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitPending did not return false after cancel")
	}
}

func TestInvokeAndWait(t *testing.T) {
	l := newLoop(t)
	ran := false
	if err := l.InvokeAndWait(func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("InvokeAndWait did not run the function")
	}
	// From the EDT it must refuse (Swing semantics).
	var inner error
	l.InvokeAndWait(func() { inner = l.InvokeAndWait(func() {}) })
	if !errors.Is(inner, ErrOnEDT) {
		t.Fatalf("InvokeAndWait on EDT = %v, want ErrOnEDT", inner)
	}
}

func TestPanicIsolatedAndReported(t *testing.T) {
	l := newLoop(t)
	observed := make(chan error, 1)
	l.SetObserver(func(d DispatchInfo) {
		if d.Err != nil {
			observed <- d.Err
		}
	})
	c := l.Post(func() { panic("handler bug") })
	err := c.Wait()
	var pe *executor.PanicError
	if !errors.As(err, &pe) || pe.Value != "handler bug" {
		t.Fatalf("err = %v", err)
	}
	if got := <-observed; got != err {
		t.Fatalf("observer saw %v, want the panic the completion carries", got)
	}
	if n := l.Crashes(); n != 0 {
		t.Fatalf("a contained handler panic was counted as %d crashes", n)
	}
	// Loop must still be alive.
	if err := l.Post(func() {}).Wait(); err != nil {
		t.Fatalf("loop dead after handler panic: %v", err)
	}
}

func TestObserver(t *testing.T) {
	l := newLoop(t)
	infos := make(chan DispatchInfo, 1)
	l.SetObserver(func(d DispatchInfo) {
		select {
		case infos <- d:
		default:
		}
	})
	l.PostLabeled("click", func() { time.Sleep(2 * time.Millisecond) }).Wait()
	d := <-infos
	if d.Label != "click" {
		t.Fatalf("label = %q", d.Label)
	}
	if d.Duration() < 2*time.Millisecond {
		t.Fatalf("Duration = %v, want >= 2ms", d.Duration())
	}
	if d.QueueDelay() < 0 {
		t.Fatalf("QueueDelay = %v", d.QueueDelay())
	}
}

// TestObserverInstalledOnLiveLoop: the loop reads its clock only for an
// installed observer, so events that were running or queued when SetObserver
// was called lack their earlier stamps. They must still be reported with no
// zero time and no negative interval (cmd/chatbench and the benchmark's traced
// pass install the observer on a loop that is already serving).
func TestObserverInstalledOnLiveLoop(t *testing.T) {
	l := newLoop(t)
	running, release := make(chan struct{}), make(chan struct{})
	first := l.PostLabeled("running", func() {
		close(running)
		<-release
	})
	<-running
	queued := l.PostLabeled("queued", func() {})

	var mu sync.Mutex
	infos := map[string]DispatchInfo{}
	l.SetObserver(func(d DispatchInfo) {
		mu.Lock()
		infos[d.Label] = d
		mu.Unlock()
	})
	after := l.PostLabeled("after", func() {})
	close(release)
	for _, c := range []*executor.Completion{first, queued, after} {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	for _, label := range []string{"running", "queued", "after"} {
		d, ok := infos[label]
		if !ok {
			t.Errorf("%s: not observed", label)
			continue
		}
		if d.Enqueued.IsZero() || d.Start.IsZero() || d.End.IsZero() {
			t.Errorf("%s: zero stamp in %+v", label, d)
		}
		if d.QueueDelay() < 0 || d.Duration() < 0 {
			t.Errorf("%s: QueueDelay = %v, Duration = %v", label, d.QueueDelay(), d.Duration())
		}
	}
	if d := infos["queued"]; !d.Enqueued.Equal(d.Start) {
		t.Errorf("queued before SetObserver: Enqueued = %v, want Start = %v", d.Enqueued, d.Start)
	}
}

func TestStopDrainsQueuedEvents(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	l := New("edt", &reg)
	l.Start()
	var n atomic.Int64
	var comps []*executor.Completion
	for i := 0; i < 50; i++ {
		comps = append(comps, l.Post(func() { n.Add(1) }))
	}
	l.Stop()
	if got := n.Load(); got != 50 {
		t.Fatalf("Stop drained %d/50 events", got)
	}
	for _, c := range comps {
		if !c.Finished() {
			t.Fatal("event not finished after Stop")
		}
	}
	if err := l.Post(func() {}).Wait(); !errors.Is(err, executor.ErrShutdown) {
		t.Fatalf("post after Stop: %v, want ErrShutdown", err)
	}
	l.Stop() // idempotent
}

// TestStopFromHandlerReturns pins the quit-button case: a handler that stops
// its own loop gets control back (joining its own goroutine would hang), the
// loop still drains what was queued behind the handler and exits, and a
// second Stop from outside joins it.
func TestStopFromHandlerReturns(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	l := New("edt", &reg)
	l.Start()
	gate := make(chan struct{})
	returned := make(chan struct{})
	var n atomic.Int64
	l.Post(func() {
		<-gate // keep the 50 below queued behind this handler
		l.Stop()
		close(returned)
	})
	var comps []*executor.Completion
	for i := 0; i < 50; i++ {
		comps = append(comps, l.Post(func() { n.Add(1) }))
	}
	close(gate)
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop called from a handler of its own loop never returned")
	}
	l.Stop() // from outside: joins the dispatch goroutine
	if got := n.Load(); got != 50 {
		t.Fatalf("loop drained %d/50 events queued behind the stopping handler", got)
	}
	for _, c := range comps {
		if !c.Finished() {
			t.Fatal("event not finished after the outside Stop")
		}
	}
	if err := l.Post(func() {}).Wait(); !errors.Is(err, executor.ErrShutdown) {
		t.Fatalf("post after Stop: %v, want ErrShutdown", err)
	}
}

func TestWaitPending(t *testing.T) {
	l := newLoop(t)
	// Pending already: returns true immediately.
	block := make(chan struct{})
	started := make(chan struct{})
	l.Post(func() { close(started); <-block })
	<-started
	l.Post(func() {})
	cancel := make(chan struct{})
	if !l.WaitPending(cancel) {
		t.Fatal("WaitPending = false with a queued event")
	}
	close(block)
	// Empty queue + cancel: returns false.
	l.Post(func() {}).Wait()
	// drain any stale notify token first
	done := make(chan bool, 1)
	c2 := make(chan struct{})
	go func() { done <- l.WaitPending(c2) }()
	poll.UntilBlockedIn(t, "(*WorkerPool).WaitPending")
	close(c2)
	select {
	case v := <-done:
		_ = v // may be true from a stale token; both are acceptable hints
	case <-time.After(time.Second):
		t.Fatal("WaitPending did not return after cancel")
	}
}

func TestQueuePeak(t *testing.T) {
	l := newLoop(t)
	block := make(chan struct{})
	started := make(chan struct{})
	l.Post(func() { close(started); <-block })
	<-started
	var comps []*executor.Completion
	for i := 0; i < 10; i++ {
		comps = append(comps, l.Post(func() {}))
	}
	if d := l.Stats().QueueDepth; d != 10 {
		t.Fatalf("QueueDepth = %d, want 10", d)
	}
	close(block)
	for _, c := range comps {
		c.Wait()
	}
	if l.QueuePeak() < 10 {
		t.Fatalf("QueuePeak = %d, want >= 10", l.QueuePeak())
	}
}

// TestLoopNodeFreeListSurvivesGC is the loop's twin of executor's
// TestWaiterFreeListSurvivesGC: a Post costs its Completion and nothing else
// even when the collector runs between posts, because the queue node comes
// from a free list the collector cannot empty (a sync.Pool would be, and each
// post would pay for a node again).
func TestLoopNodeFreeListSurvivesGC(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	l := newLoop(t)
	noop := func() {}
	got := testing.AllocsPerRun(50, func() {
		l.Post(noop).Wait()
		runtime.GC()
		runtime.GC()
	})
	if got != 1 {
		t.Errorf("Post().Wait() across collections: %v allocs/op, want 1 (the Completion)", got)
	}
}

func BenchmarkPostDispatch(b *testing.B) {
	var reg gid.Registry
	l := New("edt", &reg)
	l.Start()
	defer l.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Post(func() {}).Wait()
	}
}
