package supervise

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/testutil/poll"
	"repro/internal/trace"
)

// respawnObserver is a trace sink standing where any outside observer
// stands: at each OpRestart — which the supervisor loop emits right after it
// publishes the respawn — it reads whether the target failed and how many
// respawns the stats count.
type respawnObserver struct {
	s    *Supervisor
	seen chan [2]int64 // failed (0 or 1), respawns
}

func (o *respawnObserver) Record(e trace.Event) {
	if e.Op != trace.OpRestart {
		return
	}
	o.s.mu.RLock()
	failed := o.s.failed
	o.s.mu.RUnlock()
	var f int64
	if failed {
		f = 1
	}
	o.seen <- [2]int64{f, o.s.Stats().Respawns}
}

// TestRestartingIsPublishedAfterItsCounter pins defect (i): an observer of
// a respawn must find it already counted, with the target still up, since
// the surviving workers keep serving.
// No sleeps: the observation is made on the supervisor's own goroutine, at
// the event that announces the transition.
func TestRestartingIsPublishedAfterItsCounter(t *testing.T) {
	t.Run("respawn", func(t *testing.T) {
		var reg gid.Registry
		s, _ := newSupervised(t, &reg, 2, Options{BackoffInitial: time.Millisecond})
		defer s.Shutdown()
		obs := &respawnObserver{s: s, seen: make(chan [2]int64, 1)}
		t.Cleanup(trace.Use(obs))

		s.Post(func() { runtime.Goexit() }) // kill one worker
		select {
		case got := <-obs.seen:
			if want := [2]int64{0, 1}; got != want {
				t.Fatalf("at OpRestart: failed/respawns = %v, want %v", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("no OpRestart")
		}
	})
}

// raceExecutor is middleware over a pool whose Post first runs before — the
// window inside Supervisor.Post between its check of the target and its post,
// held open — and whose Shutdown waits for release, so the test decides when
// the pool may stop.
type raceExecutor struct {
	executor.Executor
	before   func()
	stopping atomic.Bool // Shutdown was entered
	gate     chan struct{}
	release  func()
}

func newRaceExecutor(pool *executor.WorkerPool) *raceExecutor {
	r := &raceExecutor{Executor: pool, gate: make(chan struct{})}
	var once sync.Once
	r.release = func() { once.Do(func() { close(r.gate) }) }
	return r
}

func (r *raceExecutor) Unwrap() executor.Executor { return r.Executor }

func (r *raceExecutor) Post(fn func()) *executor.Completion {
	if r.before != nil {
		r.before()
	}
	return r.Executor.Post(fn)
}

func (r *raceExecutor) Shutdown() {
	r.stopping.Store(true)
	<-r.gate
	r.Executor.Shutdown()
}

// blockedInHandleCrash reports whether some goroutine waits on a lock inside
// the supervisor's crash handling.
func blockedInHandleCrash() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "runtime_Semacquire") && strings.Contains(g, "(*Supervisor).handleCrash") {
			return true
		}
	}
	return false
}

// TestPostRacingGiveUpIsTyped: a post that saw the target up and lands on
// the pool while the supervisor gives up must fail with ErrTargetDown, not
// with the pool's untyped ErrShutdown. The pool has no live worker, so
// nothing runs the task: the give-up's drain has to find it queued, because
// the pool's shutdown backstop would fail it untyped.
func TestPostRacingGiveUpIsTyped(t *testing.T) {
	var reg gid.Registry
	pool := executor.NewWorkerPool("w", 1, &reg)
	r := newRaceExecutor(pool)
	s, err := New("w", r, Options{MaxRestarts: 1, Window: time.Minute, BackoffInitial: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	defer r.release()

	// The first kill spends the budget of 1 on a respawn.
	if err := s.Post(func() { runtime.Goexit() }).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("first kill err = %v", err)
	}
	poll.Until(t, "the respawn", func() bool { return s.Stats().Respawns == 1 && pool.Workers() == 1 })

	// The final kill lands while the next Post is inside its post to the
	// pool: the sole worker dies, and the give-up runs as far as it can —
	// to the pool's shutdown, or to a wait for this Post.
	r.before = func() {
		r.before = nil
		if err := pool.Post(func() { runtime.Goexit() }).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
			t.Errorf("final kill err = %v", err)
		}
		poll.Until(t, "the give-up", func() bool { return r.stopping.Load() || blockedInHandleCrash() })
	}
	c := s.Post(func() { t.Error("a task posted to a dead target ran") })
	r.release() // the pool may stop now
	if err := c.Wait(); !errors.Is(err, ErrTargetDown) {
		t.Fatalf("post racing the give-up: %v, want ErrTargetDown", err)
	}
}
