package eventloop

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/gid"

	"repro/internal/testutil/leakcheck"
)

func TestEDTCrashFailsEventAndMarksLoop(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	l := New("edt", &reg)
	l.Start()
	crashed := make(chan any, 1)
	l.SetCrashHandler(func(v any) { crashed <- v })

	c := l.Post(func() { runtime.Goexit() })
	if err := c.Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("err = %v, want ErrWorkerCrashed", err)
	}
	select {
	case <-crashed:
	case <-time.After(5 * time.Second):
		t.Fatal("crash handler not called")
	}
	if !l.Crashed() {
		t.Fatal("Crashed() = false after EDT death")
	}

	// Events queued behind the crash can never dispatch; Stop fails them.
	stranded := l.Post(func() { t.Error("handler ran on dead loop") })
	l.Stop()
	if err := stranded.Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("stranded err = %v, want ErrWorkerCrashed", err)
	}
}

func TestFailPendingCompletesQueued(t *testing.T) {
	var reg gid.Registry
	l := New("edt", &reg)
	// Not started: everything posted stays queued.
	c1 := l.Post(func() {})
	c2 := l.Post(func() {})
	bang := errors.New("bang")
	if n := l.FailPending(bang); n != 2 {
		t.Fatalf("FailPending = %d, want 2", n)
	}
	if err := c1.Wait(); !errors.Is(err, bang) {
		t.Fatalf("c1 err = %v", err)
	}
	if err := c2.Wait(); !errors.Is(err, bang) {
		t.Fatalf("c2 err = %v", err)
	}
}
