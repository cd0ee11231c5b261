package executor

import (
	"testing"
	"time"

	"repro/internal/gid"
	"repro/internal/testutil/leakcheck"
	"repro/internal/trace"
)

// gateWorkers blocks every one of the pool's n workers inside a gate task
// and returns the gates' release channels. A gate holds its worker, so n
// gates need n workers: once all n are running nothing else can start, and
// tasks posted afterwards stay queued until a gate opens.
func gateWorkers(t *testing.T, p *WorkerPool, n int) []chan struct{} {
	t.Helper()
	running := make(chan struct{}, n)
	release := make([]chan struct{}, n)
	for i := range release {
		ch := make(chan struct{})
		release[i] = ch
		p.Post(func() {
			running <- struct{}{}
			<-ch
		})
	}
	for i := 0; i < n; i++ {
		select {
		case <-running:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d gate tasks started", i, n)
		}
	}
	return release
}

// TestPoolStartsTasksInSubmissionOrder: the pool is one FIFO queue, so with
// a single worker free the tasks one goroutine posted start in the order it
// posted them — in a pool of any size, not only a pool of one.
func TestPoolStartsTasksInSubmissionOrder(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	p := NewWorkerPool("fifo", 3, &reg)
	defer p.Shutdown()
	release := gateWorkers(t, p, 3)

	const n = 50
	var order []int // written by the one free worker, read after the joins
	var comps []*Completion
	for i := 0; i < n; i++ {
		i := i
		comps = append(comps, p.Post(func() { order = append(order, i) }))
	}
	close(release[0])
	for _, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatalf("task failed: %v", err)
		}
	}
	// Errorf, not Fatalf: the deferred Shutdown joins the two workers the
	// closes below release.
	if len(order) != n {
		t.Errorf("%d of %d tasks recorded a start", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Errorf("start order %v: position %d ran task %d", order, i, v)
			break
		}
	}
	close(release[1])
	close(release[2])
}

// TestBlockedWorkerStrandsNothing: with one worker blocked for good, the
// free worker completes every queued task — no task belongs to a worker — and
// Submitted counts the gates and the tasks exactly.
func TestBlockedWorkerStrandsNothing(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	p := NewWorkerPool("blocked", 2, &reg)
	defer p.Shutdown()
	release := gateWorkers(t, p, 2)

	const n = 100
	var comps []*Completion
	for i := 0; i < n; i++ {
		comps = append(comps, p.Post(func() {}))
	}
	close(release[0])
	for _, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatalf("task failed: %v", err)
		}
	}
	if got := p.Stats().Submitted; got != n+2 {
		t.Fatalf("Submitted = %d, want %d", got, n+2)
	}
	close(release[1])
}

// TestSpanCausalityAcrossWorkers: a task's run span stays parented on the
// submitter's span — the parent its OpEnqueue event records, which BuildTree
// prefers — not on whatever the worker that ends up running it was doing:
// here the worker that comes out of a gate task while its sibling is still
// inside one.
func TestSpanCausalityAcrossWorkers(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	p := NewWorkerPool("causal", 2, &reg)
	defer p.Shutdown()
	release := gateWorkers(t, p, 2)

	buf := trace.NewBuffer(1024)
	defer trace.Use(buf)()
	parent := trace.NewSpanID()
	prev := trace.Swap(parent)
	c0 := p.Post(func() {})
	c1 := p.Post(func() {})
	trace.Swap(prev)

	close(release[0])
	if err := c0.Wait(); err != nil {
		t.Fatalf("task 0 failed: %v", err)
	}
	if err := c1.Wait(); err != nil {
		t.Fatalf("task 1 failed: %v", err)
	}
	close(release[1])

	events := buf.Snapshot()
	enqueues := 0
	for _, e := range events {
		if e.Op == trace.OpEnqueue {
			enqueues++
			if e.Parent != parent {
				t.Fatalf("enqueue of span %d records parent %d, want submitter span %d",
					e.Span, e.Parent, parent)
			}
		}
	}
	if enqueues != 2 {
		t.Fatalf("saw %d traced enqueues, want 2", enqueues)
	}
	runs := trace.BuildTree(events).FindAll("run", "causal")
	if len(runs) != 2 {
		t.Fatalf("tree holds %d runs, want 2", len(runs))
	}
	for _, run := range runs {
		if run.Parent != parent || run.Start.IsZero() {
			t.Fatalf("run span %d parented on %d (begun: %v), want submitter span %d",
				run.ID, run.Parent, !run.Start.IsZero(), parent)
		}
	}
}

// TestWakePropagationFansOut: one producer's burst must end up engaging
// every worker — the worker that takes a task and sees backlog wakes a
// parked sibling. The proof is completion of a burst far larger than one
// worker clears quickly, with everyone else parked.
func TestWakePropagationFansOut(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	p := NewWorkerPool("fanout", 4, &reg)
	defer p.Shutdown()

	const n = 2000
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		p.Post(func() { done <- struct{}{} })
	}
	timeout := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-done:
		case <-timeout:
			t.Fatalf("only %d/%d tasks ran: backlog wakeup lost", i, n)
		}
	}
}
