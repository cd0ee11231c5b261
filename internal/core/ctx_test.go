package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/testutil/poll"
	"repro/internal/trace"
)

func TestInvokeCtxRunsAndPropagatesContext(t *testing.T) {
	f := newFixture(t, 2)
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "v")
	var got any
	comp, err := f.rt.InvokeCtx(ctx, "worker", Wait, func(ctx context.Context) {
		got = ctx.Value(key{})
	})
	if err != nil || comp.Err() != nil {
		t.Fatalf("err=%v comp.Err=%v", err, comp.Err())
	}
	if got != "v" {
		t.Fatalf("block saw ctx value %v, want the caller's context", got)
	}
}

func TestInvokeCtxDeadlineCancelsQueuedTask(t *testing.T) {
	f := newFixture(t, 1)
	buf := trace.NewBuffer(256)
	t.Cleanup(trace.Use(buf))

	// Occupy the single worker so the next block stays queued.
	gate := make(chan struct{})
	busy := make(chan struct{})
	if _, err := f.rt.Invoke("worker", Nowait, func() { close(busy); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-busy
	defer close(gate)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var ran atomic.Bool
	comp, err := f.rt.InvokeCtx(ctx, "worker", Wait, func(context.Context) { ran.Store(true) })
	if err != nil {
		t.Fatal(err)
	}
	if got := comp.Err(); !errors.Is(got, context.DeadlineExceeded) {
		t.Fatalf("comp.Err = %v, want DeadlineExceeded", got)
	}
	if ran.Load() {
		t.Fatal("cancelled block must never run")
	}
	if buf.CountOp(trace.OpDeadline) != 1 {
		t.Fatalf("OpDeadline count = %d, want 1\n%s", buf.CountOp(trace.OpDeadline), buf.Dump())
	}
	if !IsDeadline(comp.Err()) {
		t.Fatal("IsDeadline should classify DeadlineExceeded")
	}
}

func TestInvokeCtxExpiredBeforeDispatch(t *testing.T) {
	f := newFixture(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	comp, err := f.rt.InvokeCtx(ctx, "worker", Wait, func(context.Context) {
		t.Error("block must not run with an expired context")
	})
	if err != nil {
		t.Fatal(err)
	}
	// Either the watcher cancels the queued task or the body skips it;
	// both must surface context.Canceled.
	if got := comp.Wait(); !errors.Is(got, context.Canceled) {
		t.Fatalf("comp.Err = %v, want Canceled", got)
	}
}

func TestInvokeCtxDeadlineOnEDTWithoutPostCancellable(t *testing.T) {
	// The event loop has no PostCancellable: an expired queued block is
	// skipped when dequeued, and the Completion still carries the
	// context error.
	f := newFixture(t, 1)
	gate := make(chan struct{})
	busy := make(chan struct{})
	f.edt.Post(func() { close(busy); <-gate })
	<-busy
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	comp, err := f.rt.InvokeCtx(ctx, "edt", Nowait, func(context.Context) {
		t.Error("expired block must not run on the EDT")
	})
	if err != nil {
		t.Fatal(err)
	}
	poll.Until(t, "the context deadline to expire while queued", func() bool {
		return ctx.Err() != nil
	})
	close(gate)
	if got := comp.Wait(); !errors.Is(got, context.DeadlineExceeded) {
		t.Fatalf("comp.Err = %v, want DeadlineExceeded", got)
	}
}

func TestInvokeCtxInlineWhenOwned(t *testing.T) {
	f := newFixture(t, 2)
	buf := trace.NewBuffer(256)
	t.Cleanup(trace.Use(buf))
	var nestedRan bool
	comp, err := f.rt.Invoke("worker", Wait, func() {
		// Already on the worker target: the nested ctx invocation must
		// inline, not deadlock the pool.
		nested, err := f.rt.InvokeCtx(context.Background(), "worker", Wait, func(context.Context) {
			nestedRan = true
		})
		if err != nil || nested.Err() != nil {
			t.Errorf("nested: err=%v comp.Err=%v", err, nested.Err())
		}
	})
	if err != nil || comp.Err() != nil {
		t.Fatalf("err=%v comp.Err=%v", err, comp.Err())
	}
	if !nestedRan {
		t.Fatal("nested block did not run")
	}
	if buf.CountOp(trace.OpInline) == 0 {
		t.Fatal("expected an OpInline event for the nested invocation")
	}
}

func TestInvokeCtxPanicStillCaptured(t *testing.T) {
	f := newFixture(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	comp, err := f.rt.InvokeCtx(ctx, "worker", Wait, func(context.Context) { panic("boom") })
	if err != nil {
		t.Fatal(err)
	}
	var pe *executor.PanicError
	if got := comp.Err(); !errors.As(got, &pe) {
		t.Fatalf("comp.Err = %v, want *PanicError", got)
	}
}

func TestInvokeCtxDisabledRuntimeRunsInline(t *testing.T) {
	f := newFixture(t, 1)
	f.rt.SetEnabled(false)
	ran := false
	comp, err := f.rt.InvokeCtx(context.Background(), "worker", Nowait, func(context.Context) { ran = true })
	if err != nil || comp.Err() != nil {
		t.Fatalf("err=%v comp.Err=%v", err, comp.Err())
	}
	if !ran || !comp.Finished() {
		t.Fatal("disabled runtime must run the block synchronously")
	}
}

func TestInvokeCtxArgumentValidation(t *testing.T) {
	f := newFixture(t, 1)
	if _, err := f.rt.InvokeCtx(context.Background(), "worker", NameAs, func(context.Context) {}); !errors.Is(err, ErrNoTag) {
		t.Fatalf("NameAs err = %v, want ErrNoTag", err)
	}
	if _, err := f.rt.InvokeCtx(context.Background(), "worker", Wait, nil); !errors.Is(err, ErrNilBlock) {
		t.Fatalf("nil block err = %v, want ErrNilBlock", err)
	}
	if _, err := f.rt.InvokeCtx(context.Background(), "nosuch", Wait, func(context.Context) {}); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("unknown target err = %v, want ErrUnknownTarget", err)
	}
}

func TestInvokeCtxAwaitMode(t *testing.T) {
	f := newFixture(t, 1)
	ctx := context.Background()
	var ran atomic.Bool
	comp, err := f.rt.InvokeCtx(ctx, "worker", Await, func(context.Context) { ran.Store(true) })
	if err != nil || comp.Err() != nil {
		t.Fatalf("err=%v comp.Err=%v", err, comp.Err())
	}
	if !ran.Load() || !comp.Finished() {
		t.Fatal("await must return only after the block completed")
	}
}
