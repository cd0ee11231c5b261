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
	if got := l.Dispatched(); got != 100 {
		t.Fatalf("Dispatched = %d", got)
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
		if l.Depth() != 1 {
			t.Errorf("Depth = %d inside handler, want 1", l.Depth())
		}
	})
	c.Wait()
	if l.Depth() != 0 {
		t.Fatalf("Depth = %d when idle", l.Depth())
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

func TestNestedDispatchDepth(t *testing.T) {
	l := newLoop(t)
	depths := make(chan int, 2)
	done := make(chan struct{})
	outer := l.Post(func() {
		pumpUntil(l, done)
	})
	inner := l.Post(func() {
		depths <- l.Depth()
		close(done)
	})
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
	poll.UntilBlockedIn(t, "(*Loop).WaitPending")
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
	if l.Crashed() {
		t.Fatal("a contained handler panic was counted as a crash")
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

func TestPostDelayed(t *testing.T) {
	l := newLoop(t)
	start := time.Now()
	c := l.PostDelayed(10*time.Millisecond, func() {})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("delayed post ran after %v, want >= 10ms", d)
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
	poll.UntilBlockedIn(t, "(*Loop).WaitPending")
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
	if l.Len() != 10 {
		t.Fatalf("Len = %d, want 10", l.Len())
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

// TestPostDelayedCancelledOnStop is the regression test for the leaked-timer
// bug: PostDelayed used to arm a bare time.AfterFunc that outlived Stop, so
// the callback fired into a dead loop and the returned Completion never
// finished — a Wait on it hung forever. Stop must now cancel pending timers
// and fail their completions with ErrShutdown.
func TestPostDelayedCancelledOnStop(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := &gid.Registry{}
	l := New("edt", reg)
	l.Start()
	var ran atomic.Bool
	c := l.PostDelayed(time.Hour, func() { ran.Store(true) })
	l.Stop()
	done := make(chan error, 1)
	go func() { done <- c.Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, executor.ErrShutdown) {
			t.Fatalf("Wait() = %v, want ErrShutdown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("completion never finished: delayed timer leaked past Stop")
	}
	if ran.Load() {
		t.Fatal("delayed fn ran despite Stop before the delay elapsed")
	}
}

// TestPostDelayedNoGoroutinePerPost is the regression test for the
// goroutine-per-post cost: the old implementation parked one forwarding
// goroutine for every pending delayed post. Arming many long delays must
// not grow the goroutine count linearly.
func TestPostDelayedNoGoroutinePerPost(t *testing.T) {
	reg := &gid.Registry{}
	l := New("edt", reg)
	l.Start()
	defer l.Stop()
	before := runtime.NumGoroutine()
	const n = 200
	for i := 0; i < n; i++ {
		l.PostDelayed(time.Hour, func() {})
	}
	// time.AfterFunc timers live in the runtime timer heap, not as parked
	// goroutines; allow a little scheduler noise but nothing near n.
	if after := runtime.NumGoroutine(); after-before > n/4 {
		t.Fatalf("goroutines grew %d -> %d after %d delayed posts (goroutine per post)",
			before, after, n)
	}
}

// TestPostDelayedStopRace hammers the Stop-vs-fire race: every completion
// must finish exactly once, either nil (fired) or ErrShutdown (cancelled or
// rejected by the closed loop), never hang.
func TestPostDelayedStopRace(t *testing.T) {
	defer leakcheck.Check(t)()
	for round := 0; round < 20; round++ {
		reg := &gid.Registry{}
		l := New("edt", reg)
		l.Start()
		comps := make([]*executor.Completion, 30)
		for i := range comps {
			comps[i] = l.PostDelayed(time.Duration(i)*100*time.Microsecond, func() {})
		}
		time.Sleep(time.Millisecond)
		l.Stop()
		for i, c := range comps {
			done := make(chan error, 1)
			go func() { done <- c.Wait() }()
			select {
			case err := <-done:
				if err != nil && !errors.Is(err, executor.ErrShutdown) {
					t.Fatalf("round %d comp %d: err = %v", round, i, err)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("round %d comp %d: completion never finished", round, i)
			}
		}
	}
}
