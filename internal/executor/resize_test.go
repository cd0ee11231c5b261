package executor

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/gid"
	"repro/internal/testutil/leakcheck"
)

func TestGrowAddsCapacity(t *testing.T) {
	var reg gid.Registry
	p := NewWorkerPool("grow", 1, &reg)
	defer p.Shutdown()
	if p.Workers() != 1 {
		t.Fatalf("Workers = %d", p.Workers())
	}
	// Occupy the single worker.
	gate := make(chan struct{})
	started := make(chan struct{})
	p.Post(func() { close(started); <-gate })
	<-started
	// A second long task would queue... until we grow.
	var ran atomic.Bool
	c := p.Post(func() { ran.Store(true) })
	p.Grow(2)
	if p.Workers() != 3 {
		t.Fatalf("Workers = %d after Grow(2)", p.Workers())
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("grown worker did not pick up queued task")
	}
	close(gate)
}

func TestGrowNoopCases(t *testing.T) {
	var reg gid.Registry
	p := NewWorkerPool("noop", 2, &reg)
	p.Grow(0)
	p.Grow(-3)
	if p.Workers() != 2 {
		t.Fatalf("Workers = %d", p.Workers())
	}
	p.Shutdown()
	p.Grow(5) // no-op after shutdown
	if got := p.Workers(); got != 0 {
		t.Fatalf("Workers = %d after post-shutdown Grow, want 0: Shutdown joined both", got)
	}
}

// errRevoked is the error the cancel tests hand to Completion.Cancel.
var errRevoked = errors.New("revoked by the test")

func TestCancelBeforeStart(t *testing.T) {
	var reg gid.Registry
	p := NewWorkerPool("cancel", 1, &reg)
	defer p.Shutdown()
	gate := make(chan struct{})
	started := make(chan struct{})
	p.Post(func() { close(started); <-gate })
	<-started
	var ran atomic.Bool
	c := p.Post(func() { ran.Store(true) })
	if !c.Cancel(errRevoked) {
		t.Fatal("Cancel of queued task returned false")
	}
	if err := c.Wait(); err != errRevoked {
		t.Fatalf("err = %v, want the error Cancel was given", err)
	}
	if c.Cancel(errors.New("again")) {
		t.Fatal("second Cancel returned true")
	}
	close(gate)
	// Give the worker a chance to pop the cancelled task.
	p.Post(func() {}).Wait()
	if ran.Load() {
		t.Fatal("cancelled task ran")
	}
	if err := c.Err(); err != errRevoked {
		t.Fatalf("verdict changed to %v after the skip", err)
	}
	// The gate task and the flush task ran; the skipped one is not a completion.
	if st := p.Stats(); st.Completed != 2 {
		t.Fatalf("cancelled task counted as completed: %+v", st)
	}
}

func TestCancelAfterStart(t *testing.T) {
	var reg gid.Registry
	p := NewWorkerPool("cancel2", 1, &reg)
	defer p.Shutdown()
	started := make(chan struct{})
	gate := make(chan struct{})
	c := p.Post(func() { close(started); <-gate })
	<-started
	if c.Cancel(errRevoked) {
		t.Fatal("Cancel of running task returned true")
	}
	close(gate)
	if err := c.Wait(); err != nil {
		t.Fatalf("running task completed with %v", err)
	}
	if c.Cancel(errRevoked) || c.Err() != nil {
		t.Fatalf("Cancel after completion took effect: err = %v", c.Err())
	}
}

func TestCancelOnShutdownPool(t *testing.T) {
	var reg gid.Registry
	p := NewWorkerPool("cancel3", 1, &reg)
	p.Shutdown()
	c := p.Post(func() {})
	if c.Cancel(errRevoked) {
		t.Fatal("Cancel of rejected task returned true")
	}
	if err := c.Err(); !errors.Is(err, ErrShutdown) {
		t.Fatalf("err = %v", err)
	}
}

// TestCancelPendingCompletion: the same protocol on a completion that is not
// a queued task — Cancel and the completer race for the one verdict.
func TestCancelPendingCompletion(t *testing.T) {
	c, finish := NewPendingCompletion()
	if !c.Cancel(errRevoked) || c.Cancel(errRevoked) {
		t.Fatal("want the first Cancel true and the second false")
	}
	finish(nil)
	if err := c.Wait(); err != errRevoked {
		t.Fatalf("err = %v, want the error Cancel was given", err)
	}
	c, finish = NewPendingCompletion()
	finish(nil)
	if c.Cancel(errRevoked) || c.Err() != nil {
		t.Fatalf("Cancel after completion took effect: err = %v", c.Err())
	}
	for i := 0; i < 2000; i++ {
		c, finish := NewPendingCompletion()
		won := make(chan bool)
		go func() { won <- c.Cancel(errRevoked) }()
		finish(nil)
		if cancelled := <-won; cancelled != (c.Wait() == errRevoked) {
			t.Fatalf("round %d: Cancel = %v but err = %v", i, cancelled, c.Err())
		}
	}
}

func TestCancelledTaskSkippedByHelper(t *testing.T) {
	var reg gid.Registry
	p := NewWorkerPool("cancel4", 1, &reg)
	defer p.Shutdown()
	gate := make(chan struct{})
	started := make(chan struct{})
	p.Post(func() { close(started); <-gate })
	<-started
	p.Post(func() {}).Cancel(errRevoked)
	// The helper pops the cancelled task but reports no work done.
	if p.TryRunPending() {
		t.Fatal("TryRunPending reported running a cancelled task")
	}
	close(gate)
}

func TestGrowStormProperty(t *testing.T) {
	defer leakcheck.Check(t)()
	// Property: under any interleaving of Grow/Post, every accepted task
	// runs exactly once and the pool never reports fewer than one worker.
	var reg gid.Registry
	p := NewWorkerPool("storm", 2, &reg)
	defer p.Shutdown()
	var ran atomic.Int64
	var comps []*Completion
	for i := 0; i < 200; i++ {
		switch i % 5 {
		case 1:
			p.Grow(1)
		default:
			comps = append(comps, p.Post(func() { ran.Add(1) }))
		}
		if w := p.Workers(); w < 1 {
			t.Fatalf("Workers = %d", w)
		}
	}
	for _, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if int(ran.Load()) != len(comps) {
		t.Fatalf("ran %d/%d tasks", ran.Load(), len(comps))
	}
}
