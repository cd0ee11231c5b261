package core

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventloop"
	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/testutil/poll"
)

// The await barrier's edges: what the joiner sleeps on changes state while it
// sleeps, or the target goes away under it.

// TestNestedAwaitsBothContinuationsRun: handler A awaits a block; inside A's
// barrier the EDT dispatches handler B, which awaits a block of its own. The
// barriers unwind innermost first whichever block finishes first, and neither
// continuation is lost — in particular not A's, whose wake arrives while the
// EDT sleeps on B's.
func TestNestedAwaitsBothContinuationsRun(t *testing.T) {
	for _, outerFirst := range []bool{true, false} {
		name := "inner block finishes first"
		if outerFirst {
			name = "outer block finishes first"
		}
		t.Run(name, func(t *testing.T) {
			f := newFixture(t, 2)
			var mu sync.Mutex
			var log []string
			say := func(s string) { mu.Lock(); log = append(log, s); mu.Unlock() }
			said := func(s string) bool { mu.Lock(); defer mu.Unlock(); return slices.Contains(log, s) }

			release := map[string]chan struct{}{"A": make(chan struct{}), "B": make(chan struct{})}
			started := map[string]chan struct{}{"A": make(chan struct{}), "B": make(chan struct{})}
			// depth counts the handlers running on the EDT, nested ones included.
			var depth atomic.Int32
			handler := func(id string) func() {
				return func() {
					depth.Add(1)
					defer depth.Add(-1)
					f.rt.Invoke("worker", Await, func() {
						close(started[id])
						<-release[id]
					})
					say(id + "-continuation")
				}
			}
			a := f.edt.Post(handler("A"))
			<-started["A"]
			b := f.edt.Post(handler("B"))
			<-started["B"]
			poll.UntilBlockedIn(t, "(*WorkerPool).WaitPending")
			if d := depth.Load(); d != 2 {
				t.Fatalf("EDT depth = %d with B awaiting inside A's barrier, want 2", d)
			}

			first, second := "B", "A"
			if outerFirst {
				first, second = "A", "B"
			}
			close(release[first])
			if outerFirst {
				// A's block is done but A resumes only after B: its wake has
				// to survive the EDT sleeping on, and being woken by, B's.
				poll.Until(t, "the outer block finished", func() bool { return f.pool.Stats().Completed == 1 })
			} else {
				poll.Until(t, "B continued", func() bool { return said("B-continuation") })
				poll.UntilBlockedIn(t, "(*WorkerPool).WaitPending")
			}
			if said("A-continuation") {
				t.Fatal("A continued while its block, or the barrier nested in it, was still pending")
			}
			close(release[second])
			if err := a.Wait(); err != nil {
				t.Fatal(err)
			}
			if err := b.Wait(); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if want := []string{"B-continuation", "A-continuation"}; !slices.Equal(log, want) {
				t.Fatalf("continuations ran as %v, want %v", log, want)
			}
		})
	}
}

// TestWorkerWaitingOnEDTGetsTheVerdict: a worker in Invoke(edt, Wait) — the
// round trip at the end of every Figure 6 handler — comes back with the
// verdict, not a hang, when the loop has stopped and when it crashes with the
// worker's event still queued.
func TestWorkerWaitingOnEDTGetsTheVerdict(t *testing.T) {
	fromWorker := func(f *fixture, block func()) (verdict chan error) {
		verdict = make(chan error, 1)
		f.pool.Post(func() {
			comp, err := f.rt.Invoke("edt", Wait, block)
			if err == nil {
				err = comp.Err()
			}
			verdict <- err
		})
		return verdict
	}
	expect := func(t *testing.T, verdict chan error, want error) {
		t.Helper()
		select {
		case err := <-verdict:
			if !errors.Is(err, want) {
				t.Fatalf("verdict = %v, want %v", err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the worker was never released")
		}
	}

	t.Run("stopped loop rejects the post", func(t *testing.T) {
		f := newFixture(t, 1)
		f.edt.Stop()
		expect(t, fromWorker(f, func() { t.Error("block ran on a stopped loop") }), executor.ErrShutdown)
	})

	t.Run("stop races the post", func(t *testing.T) {
		f := newFixture(t, 2)
		var verdicts []chan error
		for i := 0; i < 64; i++ {
			if i == 32 {
				go f.edt.Stop()
			}
			verdicts = append(verdicts, fromWorker(f, func() {}))
		}
		for _, v := range verdicts {
			select {
			case err := <-v:
				if err != nil && !errors.Is(err, executor.ErrShutdown) {
					t.Fatalf("verdict = %v, want nil or ErrShutdown", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a worker was never released")
			}
		}
	})

	t.Run("queue failed after a crash", func(t *testing.T) {
		f := newFixture(t, 1)
		gate := make(chan struct{})
		// Cleanups run last-in first-out: after a failed poll this one
		// releases the EDT and the worker's queued event before the fixture
		// stops both, which would otherwise wait on them forever.
		open := sync.OnceFunc(func() { close(gate) })
		t.Cleanup(func() {
			open()
			f.edt.FailPending(executor.ErrShutdown)
		})
		f.edt.Post(func() {
			<-gate
			runtime.Goexit()
		})
		verdict := fromWorker(f, func() { t.Error("block ran on a crashed loop") })
		poll.UntilBlockedIn(t, "(*Waiter).Join")
		open()
		poll.Until(t, "the EDT's crash counted", func() bool { return f.edt.Crashes() == 1 })
		if n := f.edt.FailPending(executor.ErrWorkerCrashed); n != 1 {
			t.Fatalf("FailPending failed %d events, want the worker's one", n)
		}
		expect(t, verdict, executor.ErrWorkerCrashed)
	})
}

// TestShutdownRacingAwaitReturns: Runtime.Shutdown while the EDT and a
// goroutine no target owns are issuing awaits. Every await returns — the block
// ran, or the invoke was refused with ErrRuntimeStopped — and none hangs on a
// block the stopped pool will never run.
func TestShutdownRacingAwaitReturns(t *testing.T) {
	for i := 0; i < 20; i++ {
		reg := &gid.Registry{}
		rt := NewRuntime(reg)
		edt := eventloop.New("edt", reg)
		edt.Start()
		if err := rt.RegisterEDT("edt", edt); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.CreateWorker("worker", 2); err != nil {
			t.Fatal(err)
		}
		awaitUntilStopped := func() error {
			for {
				if _, err := rt.Invoke("worker", Await, func() {}); err != nil {
					return err
				}
			}
		}
		results := make(chan error, 2)
		edt.Post(func() { results <- awaitUntilStopped() })
		go func() { results <- awaitUntilStopped() }()
		for y := i; y > 0; y-- {
			runtime.Gosched()
		}
		rt.Shutdown()
		for n := 0; n < 2; n++ {
			select {
			case err := <-results:
				if !errors.Is(err, ErrRuntimeStopped) {
					t.Fatalf("await loop ended with %v, want ErrRuntimeStopped", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("an await hung across Runtime.Shutdown")
			}
		}
		edt.Stop()
	}
}

// TestJoinVerdictsDoNotCrossTalk: the completion of a joined invoke is the
// joiner's recycled waiter node, so one node carries a stream of verdicts,
// each for the call that took it. Eight callers run Invoke(Wait) and
// Invoke(Await) against a pool of two and the EDT — the awaits on the EDT
// from inside a pool block, whose barrier helps the pool's other blocks,
// their joins included — and every third block panics with its call's id:
// every returned completion must carry its own call's verdict.
func TestJoinVerdictsDoNotCrossTalk(t *testing.T) {
	f := newFixture(t, 2)
	const callers, calls = 8, 2000
	type id struct{ caller, call int }
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < calls; k++ {
				me := id{i, k}
				block := func() {}
				if k%3 == 0 {
					block = func() { panic(me) }
				}
				var comp *executor.Completion
				var err error
				switch k % 4 {
				case 0:
					comp, err = f.rt.Invoke("worker", Wait, block)
				case 1:
					comp, err = f.rt.Invoke("edt", Wait, block)
				case 2:
					comp, err = f.rt.Invoke("worker", Await, block)
				case 3:
					outer := f.pool.Post(func() { comp, err = f.rt.Invoke("edt", Await, block) })
					if perr := outer.Wait(); perr != nil {
						t.Errorf("call %v: the pool block around the await failed: %v", me, perr)
						return
					}
				}
				if err != nil {
					t.Errorf("call %v: %v", me, err)
					return
				}
				var pe *executor.PanicError
				switch got := comp.Err(); {
				case k%3 == 0 && (!errors.As(got, &pe) || pe.Value != me):
					t.Errorf("call %v: verdict %v, want its own panic", me, got)
					return
				case k%3 != 0 && got != nil:
					t.Errorf("call %v: verdict %v, want nil", me, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
