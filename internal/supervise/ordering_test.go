package supervise_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/testutil/poll"
	"repro/internal/trace"
)

// respawnObserver is a trace sink standing where any outside observer
// stands: at each OpRestart — which the pool emits right after it counts the
// respawn — it reads whether the pool is down and how many respawns it
// counts.
type respawnObserver struct {
	p    *executor.WorkerPool
	seen chan executor.Restarts
}

func (o *respawnObserver) Record(e trace.Event) {
	if e.Op == trace.OpRestart {
		o.seen <- o.p.Restarts()
	}
}

// TestRestartingIsPublishedAfterItsCounter pins defect (i): an observer of
// a respawn must find it already counted, with the target still up, since
// the surviving workers keep serving.
// No sleeps: the observation is made on the crashing worker's own goroutine,
// at the event that announces the transition.
func TestRestartingIsPublishedAfterItsCounter(t *testing.T) {
	t.Run("respawn", func(t *testing.T) {
		var reg gid.Registry
		p := executor.NewSupervisedPool("w", 2, &reg, executor.RestartConfig{BackoffInitial: time.Millisecond})
		defer p.Shutdown()
		obs := &respawnObserver{p: p, seen: make(chan executor.Restarts, 1)}
		t.Cleanup(trace.Use(obs))

		p.Post(kill) // kill one worker
		select {
		case got := <-obs.seen:
			if got.Down || got.Total != 1 {
				t.Fatalf("at OpRestart: down=%v respawns=%d, want false, 1", got.Down, got.Total)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("no OpRestart")
		}
	})
}

// TestPostRacingGiveUpIsTyped: producers post while the last budgeted worker
// dies and the pool goes down. A post either lands before the down drain —
// a survivor runs it, or the drain fails it — or sees the refusal, so every
// completion is nil or ErrTargetDown, never the untyped ErrShutdown.
func TestPostRacingGiveUpIsTyped(t *testing.T) {
	var reg gid.Registry
	p := executor.NewSupervisedPool("w", 2, &reg, executor.RestartConfig{
		MaxRestarts: 1, Window: time.Minute, BackoffInitial: time.Millisecond})
	defer p.Shutdown()

	// The first kill spends the budget of 1 on a respawn.
	if err := p.Post(kill).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("first kill err = %v", err)
	}
	poll.Until(t, "the respawn", func() bool { return p.Restarts().Total == 1 && p.Workers() == 2 })

	// The final kill holds one worker until the producers are posting; the
	// other keeps running their tasks until the pool goes down.
	crash, running := make(chan struct{}), make(chan struct{})
	final := p.Post(func() { close(running); <-crash; runtime.Goexit() })
	<-running
	const producers = 4
	comps := make([][]*executor.Completion, producers)
	var posting, wg sync.WaitGroup
	posting.Add(producers)
	for i := range comps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				c := p.Post(func() {})
				comps[i] = append(comps[i], c)
				if n == 8 {
					posting.Done()
				}
				if c.Finished() && errors.Is(c.Err(), executor.ErrTargetDown) {
					return // the pool is down: nothing is let in any more
				}
			}
		}(i)
	}
	posting.Wait()
	close(crash)
	if err := final.Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("final kill err = %v", err)
	}
	wg.Wait()
	for i := range comps {
		for _, c := range comps[i] {
			if err := c.Wait(); err != nil && !errors.Is(err, executor.ErrTargetDown) {
				t.Fatalf("post racing the give-up: %v, want nil or ErrTargetDown", err)
			}
		}
	}
	if !p.Restarts().Down {
		t.Fatal("the second crash did not take the pool down")
	}
}
