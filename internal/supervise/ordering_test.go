package supervise

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/testutil/poll"
	"repro/internal/trace"
)

// restartObserver is a trace sink standing where any outside observer
// stands: at each OpRestart — which the supervisor loop emits right after it
// publishes the restart — it reads the state and the two counters that say
// what kind of restart that is.
type restartObserver struct {
	s    *Supervisor
	seen chan [3]int64 // state, respawns, restarts
}

func (o *restartObserver) Record(e trace.Event) {
	if e.Op != trace.OpRestart {
		return
	}
	st, _ := o.s.snapshot()
	stats := o.s.Stats()
	o.seen <- [3]int64{int64(st), stats.Respawns, stats.Restarts}
}

// TestRestartingIsPublishedAfterItsCounter pins defect (i): an observer of
// a restart must find it already counted. A respawn leaves the target
// Running, since the surviving workers keep serving; a full restart
// publishes Restarting.
// No sleeps: the observation is made on the supervisor's own goroutine, at
// the event that announces the transition.
func TestRestartingIsPublishedAfterItsCounter(t *testing.T) {
	for _, tc := range []struct {
		name    string
		respawn bool
		want    [3]int64
	}{
		{"respawn", true, [3]int64{int64(Running), 1, 0}},
		{"full restart", false, [3]int64{int64(Restarting), 0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var reg gid.Registry
			s, err := New("w", poolFactory(t, &reg, 2), Options{
				RespawnWorkers: tc.respawn,
				BackoffInitial: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown()
			obs := &restartObserver{s: s, seen: make(chan [3]int64, 1)}
			t.Cleanup(trace.Use(obs))

			s.Post(func() { runtime.Goexit() }) // kill one worker
			select {
			case got := <-obs.seen:
				if got != tc.want {
					t.Fatalf("at OpRestart: state/respawns/restarts = %v, want %v", got, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("no OpRestart")
			}
		})
	}
}

// raceExecutor is a generation whose Post first runs before — the window
// between Supervisor.Post's snapshot and its post, held open.
type raceExecutor struct {
	executor.Executor
	before func()
}

func (r *raceExecutor) Post(fn func()) *executor.Completion {
	r.before()
	return r.Executor.Post(fn)
}

// TestPostRacingRestartIsTyped pins defect (v): a post that read Running and
// lands on a generation handleFailure has meanwhile shut down must come back
// as ErrRestarting (counted as a fail-fast), not as the pool's untyped
// ErrShutdown.
func TestPostRacingRestartIsTyped(t *testing.T) {
	var reg gid.Registry
	var s *Supervisor
	gen0 := &raceExecutor{Executor: executor.NewWorkerPool("w", 1, &reg)}
	gen0.before = func() {
		s.ReportFailure(errors.New("probe failed"))
		poll.Until(t, "restart under way", func() bool { st, _ := s.snapshot(); return st == Restarting })
		gen0.Executor.Shutdown() // what handleFailure's `go old.Shutdown()` does, awaited
	}
	built := 0 // New and the supervisor loop call the factory one at a time
	s, err := New("w", func() (executor.Executor, error) {
		if built++; built == 1 {
			return gen0, nil
		}
		return executor.NewWorkerPool("w", 1, &reg), nil
	}, Options{BackoffInitial: time.Hour}) // the restart stays under way
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	c := s.Post(func() { t.Error("the replaced generation ran the task") })
	if !c.Finished() || !errors.Is(c.Err(), ErrRestarting) {
		t.Fatalf("post racing the restart: finished=%v err=%v, want ErrRestarting", c.Finished(), c.Err())
	}
	if n := s.Stats().FailFast; n != 1 {
		t.Fatalf("FailFast = %d, want 1", n)
	}
}
