package executor

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gid"

	"repro/internal/testutil/leakcheck"
)

func TestWorkerPoolRunsTasks(t *testing.T) {
	var reg gid.Registry
	p := NewWorkerPool("worker", 4, &reg)
	defer p.Shutdown()
	var n atomic.Int64
	var comps []*Completion
	for i := 0; i < 100; i++ {
		comps = append(comps, p.Post(func() { n.Add(1) }))
	}
	for _, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatalf("task error: %v", err)
		}
	}
	if got := n.Load(); got != 100 {
		t.Fatalf("ran %d tasks, want 100", got)
	}
}

func TestWorkerPoolSingleWorkerFIFO(t *testing.T) {
	// A 1-worker pool (a serial executor) must run tasks in submission
	// order — the thread-confinement guarantee GUI toolkits rely on.
	var reg gid.Registry
	p := NewWorkerPool("edt", 1, &reg)
	defer p.Shutdown()
	var mu sync.Mutex
	var order []int
	var comps []*Completion
	for i := 0; i < 200; i++ {
		i := i
		comps = append(comps, p.Post(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}))
	}
	for _, c := range comps {
		c.Wait()
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; serial pool broke FIFO", i, v)
		}
	}
}

func TestOwnsInsideAndOutside(t *testing.T) {
	var reg gid.Registry
	p := NewWorkerPool("worker", 2, &reg)
	defer p.Shutdown()
	if p.Owns() {
		t.Fatal("external goroutine should not be owned by the pool")
	}
	c := p.Post(func() {
		if !p.Owns() {
			t.Error("worker goroutine should report Owns()=true")
		}
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestOwnsDistinguishesPools(t *testing.T) {
	var reg gid.Registry
	a := NewWorkerPool("a", 1, &reg)
	b := NewWorkerPool("b", 1, &reg)
	defer a.Shutdown()
	defer b.Shutdown()
	c := a.Post(func() {
		if b.Owns() {
			t.Error("goroutine of pool a reported as member of pool b")
		}
		if !a.Owns() {
			t.Error("goroutine of pool a not a member of pool a")
		}
	})
	c.Wait()
}

func TestPanicCaptured(t *testing.T) {
	var reg gid.Registry
	p := NewWorkerPool("worker", 1, &reg)
	defer p.Shutdown()
	c := p.Post(func() { panic("boom") })
	err := c.Wait()
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "boom" {
		t.Fatalf("Wait() = %v, want PanicError(boom)", err)
	}
	if st := p.Stats(); st.Panics != 1 || p.Crashes() != 0 {
		t.Fatalf("Stats.Panics = %d, Crashes = %d; want 1, 0", st.Panics, p.Crashes())
	}
	// The pool must survive the panic and keep executing tasks.
	c2 := p.Post(func() {})
	if err := c2.Wait(); err != nil {
		t.Fatalf("pool dead after panic: %v", err)
	}
}

func TestShutdownDrainsQueueAndRejectsNew(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	p := NewWorkerPool("worker", 1, &reg)
	var n atomic.Int64
	var comps []*Completion
	for i := 0; i < 50; i++ {
		comps = append(comps, p.Post(func() {
			time.Sleep(100 * time.Microsecond)
			n.Add(1)
		}))
	}
	p.Shutdown()
	if got := n.Load(); got != 50 {
		t.Fatalf("Shutdown drained only %d/50 tasks", got)
	}
	for _, c := range comps {
		if !c.Finished() {
			t.Fatal("task not finished after Shutdown")
		}
	}
	c := p.Post(func() { n.Add(1) })
	if err := c.Wait(); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post after shutdown: err = %v, want ErrShutdown", err)
	}
	if n.Load() != 50 {
		t.Fatal("task ran after shutdown")
	}
	// Second Shutdown is a no-op.
	p.Shutdown()

	// The drain race: the lone worker reads the queue empty, a Post lands
	// (no wake, nobody is parked yet), Shutdown publishes the stop, the
	// worker reads it. A Post that returned before Shutdown was called is
	// run, never failed by the backstop. The busy loop sweeps the post
	// across the worker's start, spin and park.
	for round := 0; round < 2000; round++ {
		p := NewWorkerPool("worker", 1, &reg)
		for i := 0; i < round%64; i++ {
			n.Load()
		}
		c := p.Post(func() {})
		p.Shutdown()
		if err := c.Err(); err != nil {
			t.Fatalf("round %d: task posted before Shutdown: err = %v, want it run", round, err)
		}
	}
}

// TestShutdownFromOwnWorkerReturns pins the target-block case: a task that
// shuts down the pool it runs on gets control back (joining its own worker
// would hang), the workers still drain what was queued and exit, and a second
// Shutdown from outside joins them.
func TestShutdownFromOwnWorkerReturns(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	p := NewWorkerPool("worker", 2, &reg)
	gate := make(chan struct{})
	returned := make(chan struct{})
	var n atomic.Int64
	p.Post(func() {
		<-gate // the 50 below are queued before the stop is published
		p.Shutdown()
		close(returned)
	})
	var comps []*Completion
	for i := 0; i < 50; i++ {
		comps = append(comps, p.Post(func() { n.Add(1) }))
	}
	close(gate)
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown called from a task on its own pool never returned")
	}
	p.Shutdown() // from outside: joins the workers
	if got := n.Load(); got != 50 {
		t.Fatalf("pool drained %d/50 tasks queued before the stop", got)
	}
	for _, c := range comps {
		if !c.Finished() {
			t.Fatal("task not finished after the outside Shutdown")
		}
	}
	if err := p.Post(func() {}).Wait(); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post after Shutdown: %v, want ErrShutdown", err)
	}
}

func TestTryRunPending(t *testing.T) {
	var reg gid.Registry
	p := NewWorkerPool("worker", 1, &reg)
	defer p.Shutdown()
	// Occupy the only worker so queued tasks stay pending.
	block := make(chan struct{})
	started := make(chan struct{})
	p.Post(func() { close(started); <-block })
	<-started
	var n atomic.Int64
	c := p.Post(func() { n.Add(1) })
	// Help-run the pending task from this (external) goroutine.
	if !p.TryRunPending() {
		t.Fatal("TryRunPending found no task")
	}
	if !c.Finished() || n.Load() != 1 {
		t.Fatal("helped task did not complete")
	}
	if p.TryRunPending() {
		t.Fatal("TryRunPending ran a task from an empty queue")
	}
	close(block)
	if st := p.Stats(); st.Helped != 1 {
		t.Fatalf("Helped = %d, want 1", st.Helped)
	}
}

func TestStatsCounters(t *testing.T) {
	var reg gid.Registry
	p := NewWorkerPool("worker", 2, &reg)
	var comps []*Completion
	for i := 0; i < 20; i++ {
		comps = append(comps, p.Post(func() {}))
	}
	for _, c := range comps {
		c.Wait()
	}
	st := p.Stats()
	if st.Submitted != 20 || st.Completed != 20 {
		t.Fatalf("stats = %+v", st)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("QueueDepth = %d after drain", st.QueueDepth)
	}
	p.Shutdown()
}

// TestPoolObserver: the observer hears of every task a pool runs, with its
// label and its captured panic, before the task's joiners wake. Skipped
// tasks and the stamps of an observer installed on a busy pool are the
// EDT's tests (package eventloop), on a pool of one.
func TestPoolObserver(t *testing.T) {
	p := NewWorkerPool("observed", 2, &gid.Registry{})
	defer p.Shutdown()
	seen := make(chan DispatchInfo, 1)
	p.SetObserver(func(d DispatchInfo) { seen <- d })
	if err := p.PostLabeled("ok", func() {}).Wait(); err != nil {
		t.Fatal(err)
	}
	if d := <-seen; d.Label != "ok" || d.Err != nil || d.QueueDelay() < 0 || d.Duration() < 0 {
		t.Fatalf("observed %+v for a plain task", d)
	}
	err := p.PostLabeled("boom", func() { panic("boom") }).Wait()
	if d := <-seen; d.Label != "boom" || d.Err == nil || d.Err != err {
		t.Fatalf("observed %+v, want the panic the completion carries (%v)", d, err)
	}
}

func TestCompletionStates(t *testing.T) {
	c := NewCompletedCompletion(nil)
	if !c.Finished() || c.Err() != nil {
		t.Fatal("completed completion wrong state")
	}
	e := errors.New("x")
	c2 := NewCompletedCompletion(e)
	if c2.Err() != e {
		t.Fatal("error not preserved")
	}
	select {
	case <-c2.Done():
	default:
		t.Fatal("Done channel not closed")
	}
}

func TestPoolCompletenessProperty(t *testing.T) {
	// Property: for any task count and worker count, every submitted task
	// runs exactly once.
	f := func(nTasks uint8, nWorkers uint8) bool {
		var reg gid.Registry
		p := NewWorkerPool("prop", int(nWorkers%8), &reg)
		defer p.Shutdown()
		var n atomic.Int64
		var comps []*Completion
		for i := 0; i < int(nTasks); i++ {
			comps = append(comps, p.Post(func() { n.Add(1) }))
		}
		for _, c := range comps {
			if c.Wait() != nil {
				return false
			}
		}
		return n.Load() == int64(nTasks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroWorkerClamped(t *testing.T) {
	var reg gid.Registry
	p := NewWorkerPool("clamp", 0, &reg)
	defer p.Shutdown()
	if p.Workers() != 1 {
		t.Fatalf("Workers = %d, want clamped 1", p.Workers())
	}
	if err := p.Post(func() {}).Wait(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPostWait(b *testing.B) {
	var reg gid.Registry
	p := NewWorkerPool("bench", 4, &reg)
	defer p.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Post(func() {}).Wait()
	}
}

func BenchmarkPostNowait(b *testing.B) {
	var reg gid.Registry
	p := NewWorkerPool("bench", 4, &reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Post(func() {})
	}
	b.StopTimer()
	p.Shutdown()
}

func BenchmarkOwns(b *testing.B) {
	var reg gid.Registry
	p := NewWorkerPool("bench", 2, &reg)
	defer p.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Owns()
	}
}

// TestPeakCasMaxConcurrent is the regression test for the check-then-store
// watermark race: with racing plain stores, a post observing length 3 could
// overwrite the peak published by a post that observed length 7. With the
// CAS-max loop the final peak must be exactly the full backlog depth, since
// the worker is gated and the queue only grows. Run with -race.
func TestPeakCasMaxConcurrent(t *testing.T) {
	reg := &gid.Registry{}
	p := NewWorkerPool("cas-peak", 1, reg)
	defer p.Shutdown()

	gate := make(chan struct{})
	running := make(chan struct{})
	p.Post(func() { close(running); <-gate })
	<-running // the sole worker is now parked inside the gate task

	const producers = 8
	const perProducer = 50
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perProducer; j++ {
				p.Post(func() {})
			}
		}()
	}
	wg.Wait()
	if got := p.Stats().QueuePeak; got != producers*perProducer {
		t.Fatalf("QueuePeak = %d, want exactly %d (watermark lost to a racing store)",
			got, producers*perProducer)
	}
	close(gate)
}
