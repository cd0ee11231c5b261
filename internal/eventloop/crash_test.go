package eventloop

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/executor"
	"repro/internal/gid"

	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
)

func TestEDTCrashFailsEventAndMarksLoop(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	l := New("edt", &reg)
	l.Start()

	c := l.Post(func() { runtime.Goexit() })
	if err := c.Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("err = %v, want ErrWorkerCrashed", err)
	}
	// The event's completion finishes before the dying goroutine is
	// counted, so the crash is awaited rather than read once.
	poll.Until(t, "the crash counted", func() bool { return l.Crashes() == 1 })
	if c, w := l.Crashes(), l.Workers(); c != 1 || w != 0 {
		t.Fatalf("Crashes = %d, Workers = %d after EDT death, want 1 and 0", c, w)
	}

	// Events queued behind the crash can never dispatch; Stop fails them
	// with the pool's stranded-queue error.
	stranded := l.Post(func() { t.Error("handler ran on dead loop") })
	l.Stop()
	if err := stranded.Wait(); !errors.Is(err, executor.ErrShutdown) {
		t.Fatalf("stranded err = %v, want ErrShutdown", err)
	}
}

func TestFailPendingCompletesQueued(t *testing.T) {
	l := newLoop(t)
	// Behind a held handler, everything posted stays queued.
	release := holdEDT(l)
	defer release()
	c1 := l.Post(func() { t.Error("failed event ran") })
	c2 := l.Post(func() { t.Error("failed event ran") })
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
