package executor_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/eventloop"
	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
)

// faultTarget is one embedder of executor.FaultHooks under test. A crash
// kills a Loop for good, so every case builds a fresh one.
type faultTarget struct {
	hooks   interface{ SetCrashHandler(func(any)) }
	run     func(fn func()) // runs fn on a goroutine the target owns; returns once fn has unwound
	crashed func() bool
	stop    func() // joins the target's goroutines: every notification is over when it returns
}

// faultTargets is the table: the two types that embed executor.FaultHooks.
// The test is external to package executor so it can build an
// eventloop.Loop, which imports this package.
var faultTargets = []struct {
	name  string
	build func(t *testing.T) faultTarget
}{
	{"WorkerPool", func(t *testing.T) faultTarget {
		p := executor.NewWorkerPool("pool", 1, &gid.Registry{})
		return faultTarget{hooks: p, run: func(fn func()) { p.Post(fn).Wait() },
			crashed: func() bool { return p.Crashes() > 0 }, stop: p.Shutdown}
	}},
	{"Loop", func(t *testing.T) faultTarget {
		l := eventloop.New("edt", &gid.Registry{})
		l.Start()
		return faultTarget{hooks: l, run: func(fn func()) { l.Post(fn).Wait() },
			crashed: func() bool { return l.Crashes() > 0 }, stop: l.Stop}
	}},
}

// recorder counts notifications and keeps the last payload.
type recorder struct {
	n    atomic.Int64
	last atomic.Value
}

func (r *recorder) handle(v any) {
	r.last.Store([1]any{v}) // boxed: atomic.Value rejects a nil payload
	r.n.Add(1)
}

func (r *recorder) payload() any { return r.last.Load().([1]any)[0] }

// TestFaultHooksAcrossEmbedders holds WorkerPool and eventloop.Loop to one
// contract for the hook they share: a contained panic is no crash and
// notifies nobody, the crash handler fires exactly once per goroutine death
// with nil for a Goexit, nil uninstalls it, a crash nobody heard goes once to
// the next crash handler installed, and installing while a fault is in
// flight is race-clean.
func TestFaultHooksAcrossEmbedders(t *testing.T) {
	for _, tc := range faultTargets {
		t.Run(tc.name+"/panic", func(t *testing.T) {
			defer leakcheck.Check(t)()
			ft := tc.build(t)
			defer ft.stop()
			var crash recorder
			ft.hooks.SetCrashHandler(crash.handle)
			ft.run(func() { panic("boom") })
			ft.run(func() {}) // a later task has run: the target survived the panic
			if n := crash.n.Load(); n != 0 {
				t.Fatalf("crash handler called %d times for a contained panic, want 0", n)
			}
			if ft.crashed() {
				t.Fatal("a contained panic was counted as a crash")
			}
		})
		t.Run(tc.name+"/goexit", func(t *testing.T) {
			defer leakcheck.Check(t)()
			ft := tc.build(t)
			var crash recorder
			ft.hooks.SetCrashHandler(crash.handle)
			ft.run(runtime.Goexit)
			poll.Until(t, "crash handler notified", func() bool { return crash.n.Load() == 1 })
			ft.stop()
			if n, v := crash.n.Load(), crash.payload(); n != 1 || v != nil {
				t.Fatalf("crash handler: %d calls, payload %v; want 1, nil", n, v)
			}
		})
		t.Run(tc.name+"/goexit-uninstalled", func(t *testing.T) {
			defer leakcheck.Check(t)()
			ft := tc.build(t)
			var crash recorder
			ft.hooks.SetCrashHandler(crash.handle)
			ft.hooks.SetCrashHandler(nil)
			ft.run(runtime.Goexit)
			poll.Until(t, "crash recorded", ft.crashed)
			ft.stop()
			if n := crash.n.Load(); n != 0 {
				t.Fatalf("crash handler called %d times after nil uninstalled it, want 0", n)
			}
		})
		t.Run(tc.name+"/goexit-before-install", func(t *testing.T) {
			defer leakcheck.Check(t)()
			ft := tc.build(t)
			ft.run(runtime.Goexit)
			poll.Until(t, "crash recorded", ft.crashed)
			ft.stop() // the unheard notification is over
			var crash, late recorder
			ft.hooks.SetCrashHandler(crash.handle)
			ft.hooks.SetCrashHandler(late.handle)
			if n, v := crash.n.Load(), crash.payload(); n != 1 || v != nil {
				t.Fatalf("first handler installed after the crash: %d calls, payload %v; want 1, nil", n, v)
			}
			if n := late.n.Load(); n != 0 {
				t.Fatalf("held crash delivered again to a second handler (%d calls)", n)
			}
		})
		t.Run(tc.name+"/install-during-fault", func(t *testing.T) {
			defer leakcheck.Check(t)()
			ft := tc.build(t)
			var crash recorder
			quit := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-quit:
						return
					default:
					}
					if i%2 == 0 {
						ft.hooks.SetCrashHandler(crash.handle)
					} else {
						ft.hooks.SetCrashHandler(nil)
					}
				}
			}()
			ft.run(func() { panic("boom") })
			ft.run(runtime.Goexit)
			poll.Until(t, "crash recorded", ft.crashed)
			ft.stop()
			close(quit)
			wg.Wait()
			if c := crash.n.Load(); c > 1 {
				t.Fatalf("one panic and one crash notified the crash handler %d times", c)
			}
		})
	}
}
