package executor_test

import (
	"runtime"
	"testing"

	"repro/internal/eventloop"
	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
)

// faultTarget is one executor under test that runs user code on goroutines
// it owns. A crash kills a Loop for good, so every case builds a fresh one.
type faultTarget struct {
	run     func(fn func()) // runs fn on a goroutine the target owns; returns once fn has unwound
	crashes func() int64
	stop    func() // joins the target's goroutines: every crash is counted when it returns
}

// faultTargets is the table: WorkerPool, and eventloop.Loop, a pool of one.
// The test is external to package executor so it can build an
// eventloop.Loop, which imports this package.
var faultTargets = []struct {
	name  string
	build func(t *testing.T) faultTarget
}{
	{"WorkerPool", func(t *testing.T) faultTarget {
		p := executor.NewWorkerPool("pool", 1, &gid.Registry{})
		return faultTarget{run: func(fn func()) { p.Post(fn).Wait() }, crashes: p.Crashes, stop: p.Shutdown}
	}},
	{"Loop", func(t *testing.T) faultTarget {
		l := eventloop.New("edt", &gid.Registry{})
		l.Start()
		return faultTarget{run: func(fn func()) { l.Post(fn).Wait() }, crashes: l.Crashes, stop: l.Stop}
	}},
}

// TestFaultHooksAcrossEmbedders holds WorkerPool and eventloop.Loop to one
// contract for goroutine deaths: a contained panic is no crash, and a Goexit
// is counted exactly once.
func TestFaultHooksAcrossEmbedders(t *testing.T) {
	for _, tc := range faultTargets {
		t.Run(tc.name+"/panic", func(t *testing.T) {
			defer leakcheck.Check(t)()
			ft := tc.build(t)
			defer ft.stop()
			ft.run(func() { panic("boom") })
			ft.run(func() {}) // a later task has run: the target survived the panic
			if n := ft.crashes(); n != 0 {
				t.Fatalf("a contained panic was counted as %d crashes", n)
			}
		})
		t.Run(tc.name+"/goexit", func(t *testing.T) {
			defer leakcheck.Check(t)()
			ft := tc.build(t)
			ft.run(runtime.Goexit)
			poll.Until(t, "the crash counted", func() bool { return ft.crashes() > 0 })
			ft.stop()
			if n := ft.crashes(); n != 1 {
				t.Fatalf("one Goexit counted as %d crashes, want 1", n)
			}
		})
	}
}
