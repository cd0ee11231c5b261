package executor

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gid"

	"repro/internal/testutil/leakcheck"

	"repro/internal/testutil/poll"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	poll.Until(t, what, cond)
}

func TestWorkerCrashFailsTaskTyped(t *testing.T) {
	var reg gid.Registry
	p := NewWorkerPool("crash", 2, &reg)
	defer p.Shutdown()
	c := p.Post(func() { runtime.Goexit() })
	if err := c.Wait(); !errors.Is(err, ErrWorkerCrashed) {
		t.Fatalf("err = %v, want ErrWorkerCrashed", err)
	}
	waitFor(t, "crash accounting", func() bool { return p.Crashes() == 1 && p.Workers() == 1 })
	// The surviving worker still serves tasks.
	if err := p.Post(func() {}).Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashHandlerNotified: the worker's epilogue hands a death to the
// pool's crash handling (workerCrashed), which counts it and drops the dead
// worker from Workers; a pool without a budget respawns nothing.
func TestCrashHandlerNotified(t *testing.T) {
	var reg gid.Registry
	p := NewWorkerPool("crash2", 1, &reg)
	defer p.Shutdown()
	p.Post(func() { runtime.Goexit() })
	waitFor(t, "the crash counted", func() bool { return p.Crashes() == 1 && p.Workers() == 0 })
	if r := p.Restarts(); r != (Restarts{}) {
		t.Fatalf("an unsupervised pool keeps a restart record: %+v", r)
	}
}

func TestShutdownFailsStrandedQueue(t *testing.T) {
	var reg gid.Registry
	p := NewWorkerPool("stranded", 1, &reg)
	// Kill the only worker, then queue tasks nobody can run.
	p.Post(func() { runtime.Goexit() }).Wait()
	waitFor(t, "worker death", func() bool { return p.Workers() == 0 })
	c1 := p.Post(func() { t.Error("stranded task ran") })
	c2 := p.Post(func() { t.Error("stranded task ran") })
	p.Shutdown()
	for _, c := range []*Completion{c1, c2} {
		if err := c.Wait(); !errors.Is(err, ErrShutdown) {
			t.Fatalf("stranded task err = %v, want ErrShutdown", err)
		}
	}
}

func TestFailPending(t *testing.T) {
	var reg gid.Registry
	p := NewWorkerPool("failpending", 1, &reg)
	defer p.Shutdown()
	gate := make(chan struct{})
	started := make(chan struct{})
	p.Post(func() { close(started); <-gate })
	<-started
	bang := errors.New("restarting")
	c1 := p.Post(func() {})
	c2 := p.Post(func() {})
	if n := p.FailPending(bang); n != 2 {
		t.Fatalf("FailPending = %d, want 2", n)
	}
	if err := c1.Wait(); !errors.Is(err, bang) {
		t.Fatalf("c1 err = %v", err)
	}
	if err := c2.Wait(); !errors.Is(err, bang) {
		t.Fatalf("c2 err = %v", err)
	}
	close(gate)
	// The pool keeps working after a purge.
	if err := p.Post(func() {}).Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentGrowShutdown(t *testing.T) {
	defer leakcheck.Check(t)()
	// Regression for the Grow wg.Add / Shutdown wg.Wait race: hammer
	// Grow from several goroutines while Shutdown runs. Run with -race.
	for round := 0; round < 20; round++ {
		var reg gid.Registry
		p := NewWorkerPool("storm", 2, &reg)
		var running atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					p.Grow(1 + (g+i)%3)
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p.Post(func() { running.Add(1) })
			}
		}()
		p.Shutdown()
		wg.Wait()
		p.Grow(4) // no-op after shutdown
		// Every accepted task either ran before the drain finished or was
		// failed by the shutdown backstop; none may hang.
	}
}

// TestCrashSurvivorsDrainQueue: a worker that crashes takes nothing with it —
// the queue was never its own — so the tasks queued at the time of the crash
// run to completion on the survivor, and Submitted stays exact.
func TestCrashSurvivorsDrainQueue(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	p := NewWorkerPool("crash", 2, &reg)
	defer p.Shutdown()

	// Gate both workers; each gate crashes (Goexit) or returns on command.
	crash := make(chan bool)
	running := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		p.Post(func() {
			running <- struct{}{}
			if <-crash {
				runtime.Goexit()
			}
		})
	}
	<-running
	<-running

	const n = 60
	var comps []*Completion
	for i := 0; i < n; i++ {
		comps = append(comps, p.Post(func() {}))
	}
	crash <- true // one gate's holder dies
	waitFor(t, "crash recorded", func() bool { return p.Crashes() == 1 && p.Workers() == 1 })
	// The survivor is still gated, so the backlog is exact.
	if d := p.Stats().QueueDepth; d != n {
		t.Fatalf("QueueDepth = %d after the crash, want %d", d, n)
	}
	crash <- false // free the survivor
	for _, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatalf("queued task failed after crash: %v", err)
		}
	}
	if got := p.Stats().Submitted; got != n+2 {
		t.Fatalf("Submitted = %d, want %d", got, n+2)
	}
}

// TestCrashLastWorkerOrphanGrowAdopts: when the last worker crashes the
// queue stays — posts still land there — and the worker Grow adds drains the
// backlog. This is the contract a supervisor's Grow(1) respawn depends on:
// respawn a worker *with the queue*.
func TestCrashLastWorkerOrphanGrowAdopts(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	p := NewWorkerPool("orphan", 1, &reg)
	defer p.Shutdown()

	crash := make(chan struct{})
	running := make(chan struct{})
	p.Post(func() { close(running); <-crash; runtime.Goexit() })
	<-running
	const n = 20
	var comps []*Completion
	for i := 0; i < n; i++ {
		comps = append(comps, p.Post(func() {}))
	}
	close(crash)
	waitFor(t, "worker gone", func() bool { return p.Workers() == 0 })
	if d := p.Stats().QueueDepth; d != n {
		t.Fatalf("QueueDepth = %d, want %d (the queue must outlive its last worker)", d, n)
	}
	// A fully-crashed pool still accepts posts.
	comps = append(comps, p.Post(func() {}))
	p.Grow(1)
	for _, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatalf("queued task failed after respawn: %v", err)
		}
	}
}
