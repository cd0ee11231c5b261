package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/executor"
	"repro/internal/gid"
)

// TestShutdownInvokeRaceIsTyped races Shutdown against a storm of in-flight
// Invokes: every invocation must either run to completion or fail with
// ErrRuntimeStopped — executor.ErrShutdown must never leak out, and nothing
// may hang. Run under -race this also checks the lifecycle fields.
func TestShutdownInvokeRaceIsTyped(t *testing.T) {
	for round := 0; round < 25; round++ {
		var reg gid.Registry
		rt := NewRuntime(&reg)
		if _, err := rt.CreateWorker("w", 2); err != nil {
			t.Fatal(err)
		}

		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					comp, err := rt.Invoke("w", Wait, func() {})
					if err != nil {
						if !errors.Is(err, ErrRuntimeStopped) {
							t.Errorf("invoke err = %v", err)
						}
						return
					}
					if cerr := comp.Err(); cerr != nil && !errors.Is(cerr, executor.ErrShutdown) {
						// A task accepted before shutdown may still be
						// failed by the pool's pending-failure backstop;
						// anything else is a bug.
						t.Errorf("completion err = %v", cerr)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rt.Shutdown()
		}()
		close(start)
		wg.Wait()

		// After the dust settles the answer is always the typed error.
		if _, err := rt.Invoke("w", Wait, func() {}); !errors.Is(err, ErrRuntimeStopped) {
			t.Fatalf("post-shutdown invoke err = %v", err)
		}
	}
}

// TestShutdownInvokeCtxRaceIsTyped is the same race through the context
// entry point.
func TestShutdownInvokeCtxRaceIsTyped(t *testing.T) {
	for round := 0; round < 25; round++ {
		var reg gid.Registry
		rt := NewRuntime(&reg)
		if _, err := rt.CreateWorker("w", 2); err != nil {
			t.Fatal(err)
		}

		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					comp, err := rt.InvokeCtx(context.Background(), "w", Wait, func(context.Context) {})
					if err != nil {
						if !errors.Is(err, ErrRuntimeStopped) {
							t.Errorf("invokectx err = %v", err)
						}
						return
					}
					if cerr := comp.Err(); cerr != nil && !errors.Is(cerr, executor.ErrShutdown) {
						t.Errorf("completion err = %v", cerr)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rt.Shutdown()
		}()
		close(start)
		wg.Wait()
	}
}

// TestCreateWorkerShutdownRaceDoesNotLeak races CreateWorker against
// Shutdown: whichever wins, the pool must end up stopped — either
// CreateWorker returns ErrRuntimeStopped (and shut the orphan down itself)
// or the runtime owns it and Shutdown stops it.
func TestCreateWorkerShutdownRaceDoesNotLeak(t *testing.T) {
	for round := 0; round < 50; round++ {
		var reg gid.Registry
		rt := NewRuntime(&reg)

		start := make(chan struct{})
		var wg sync.WaitGroup
		var pool *executor.WorkerPool
		var cErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			pool, cErr = rt.CreateWorker("w", 1)
		}()
		go func() {
			defer wg.Done()
			<-start
			rt.Shutdown()
		}()
		close(start)
		wg.Wait()

		switch {
		case cErr == nil:
			// Registered in time (or after-win): Shutdown may have missed
			// it only if registration finished first; either way the final
			// Shutdown below must leave it stopped.
			rt.Shutdown()
			if err := pool.Post(func() {}).Wait(); !errors.Is(err, executor.ErrShutdown) {
				t.Fatalf("round %d: pool alive after shutdown: %v", round, err)
			}
		case errors.Is(cErr, ErrRuntimeStopped):
			if pool != nil {
				t.Fatalf("round %d: pool returned alongside ErrRuntimeStopped", round)
			}
		default:
			t.Fatalf("round %d: CreateWorker err = %v", round, cErr)
		}
	}
}

// TestLockFreeRegistryReadsRaceWriters hammers the readers that take no lock
// (resolve behind Invoke and InvokeNamed, the gid registry behind Owns, the
// tag table behind WaitTag) while CreateWorker — whose starting workers
// re-publish both snapshots — and finally Shutdown write. Every invoke either
// runs, names a target not yet registered, or fails with ErrRuntimeStopped;
// nothing hangs; and once Shutdown has returned the answer is
// ErrRuntimeStopped on every entry point.
func TestLockFreeRegistryReadsRaceWriters(t *testing.T) {
	for round := 0; round < 10; round++ {
		var reg gid.Registry
		rt := NewRuntime(&reg)
		if _, err := rt.CreateWorker("w0", 2); err != nil {
			t.Fatal(err)
		}
		tolerated := func(err error) bool {
			return err == nil || errors.Is(err, ErrRuntimeStopped) || errors.Is(err, ErrUnknownTarget)
		}

		start := make(chan struct{})
		var wg sync.WaitGroup
		hammer := func(fn func(i int)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 100; i++ {
					fn(i)
				}
			}()
		}
		targets := []string{"w0", "w1", "w2", "w3"}
		for g := 0; g < 2; g++ {
			hammer(func(i int) {
				if _, err := rt.Invoke(targets[i%len(targets)], Wait, func() {}); !tolerated(err) {
					t.Errorf("Invoke err = %v", err)
				}
			})
			hammer(func(i int) {
				if _, err := rt.InvokeNamed(targets[i%len(targets)], "tag", func() {}); !tolerated(err) {
					t.Errorf("InvokeNamed err = %v", err)
				}
			})
			hammer(func(int) {
				// A block accepted just before Shutdown may be failed by the
				// pool's pending-failure backstop, as in the test above.
				if err := rt.WaitTag("tag"); err != nil && !errors.Is(err, executor.ErrShutdown) {
					t.Errorf("WaitTag err = %v", err)
				}
			})
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			for _, name := range targets[1:] {
				if _, err := rt.CreateWorker(name, 2); !tolerated(err) {
					t.Errorf("CreateWorker(%s) err = %v", name, err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			runtime.Gosched()
			rt.Shutdown()
		}()
		close(start)
		wg.Wait()

		if _, err := rt.Invoke("w0", Wait, func() {}); !errors.Is(err, ErrRuntimeStopped) {
			t.Fatalf("round %d: post-shutdown Invoke err = %v", round, err)
		}
		if _, err := rt.InvokeNamed("w1", "tag", func() {}); !errors.Is(err, ErrRuntimeStopped) {
			t.Fatalf("round %d: post-shutdown InvokeNamed err = %v", round, err)
		}
		if _, err := rt.CreateWorker("late", 1); !errors.Is(err, ErrRuntimeStopped) {
			t.Fatalf("round %d: post-shutdown CreateWorker err = %v", round, err)
		}
		if n := reg.Len(); n != 0 {
			t.Fatalf("round %d: %d goroutines still registered after Shutdown", round, n)
		}
	}
}
