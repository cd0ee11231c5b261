package eventloop

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/executor"
	"repro/internal/gid"

	"repro/internal/testutil/poll"
)

func TestSetObserverNilClears(t *testing.T) {
	l := newLoop(t)
	var n atomic.Int64
	l.SetObserver(func(DispatchInfo) { n.Add(1) })
	l.Post(func() {}).Wait()
	if n.Load() == 0 {
		t.Fatal("observer not called")
	}
	l.SetObserver(nil)
	before := n.Load()
	l.Post(func() {}).Wait()
	if n.Load() != before {
		t.Fatal("cleared observer still called")
	}
	l.Post(func() { panic("x") }).Wait() // a cleared observer must not crash the next panic either
	l.Post(func() {}).Wait()
}

func TestConcurrentPosters(t *testing.T) {
	l := newLoop(t)
	var ran atomic.Int64
	var wg sync.WaitGroup
	const posters, per = 16, 50
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Post(func() { ran.Add(1) })
			}
		}()
	}
	wg.Wait()
	// Flush: one more event after all posts.
	l.Post(func() {}).Wait()
	poll.Until(t, "every posted event to run", func() bool { return ran.Load() == posters*per })
}

func TestNameAndShutdownAlias(t *testing.T) {
	var reg gid.Registry
	l := New("my-edt", &reg)
	l.Start()
	if l.Name() != "my-edt" {
		t.Fatal("name")
	}
	l.Shutdown() // alias for Stop
	if err := l.Post(func() {}).Wait(); !errors.Is(err, executor.ErrShutdown) {
		t.Fatal("Shutdown did not stop the loop")
	}
}
