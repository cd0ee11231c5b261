package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/metrics"
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
	// The canceller emits after its Cancel has woken this goroutine.
	poll.Until(t, "the canceller's OpDeadline", func() bool { return buf.CountOp(trace.OpDeadline) > 0 })
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
	// The post is refused before it reaches the target.
	if got := comp.Wait(); !errors.Is(got, context.Canceled) {
		t.Fatalf("comp.Err = %v, want Canceled", got)
	}
}

func TestInvokeCtxDeadlineOnEDT(t *testing.T) {
	// A block queued behind a busy EDT is cancelled through its Completion
	// like one queued on a pool: the join returns at the deadline, while the
	// EDT is still held, and the block is skipped when the EDT reaches it.
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
	if got := comp.Wait(); !errors.Is(got, context.DeadlineExceeded) {
		t.Fatalf("comp.Err = %v, want DeadlineExceeded", got)
	}
	close(gate)
	if err := f.edt.InvokeAndWait(func() {}); err != nil {
		t.Fatal(err)
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

// hold occupies one worker (or the EDT) of e so later posts stay queued.
func hold(e executor.Executor) (release func()) {
	gate, busy := make(chan struct{}), make(chan struct{})
	e.Post(func() { close(busy); <-gate })
	<-busy
	return func() { close(gate) }
}

// TestInvokeCtxStartsNoGoroutine: a hundred invocations parked in Wait on a
// cancellable context are a hundred goroutines — the callers' — and none of
// the runtime's making.
func TestInvokeCtxStartsNoGoroutine(t *testing.T) {
	f := newFixture(t, 1)
	release := hold(f.pool)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const callers = 100
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if comp, err := f.rt.InvokeCtx(ctx, "worker", Wait, func(context.Context) {}); err != nil || comp.Err() != nil {
				t.Errorf("err=%v comp=%v", err, comp)
			}
		}()
	}
	var stacks string
	poll.Until(t, "every caller to park in Wait", func() bool {
		buf := make([]byte, 1<<20)
		stacks = string(buf[:runtime.Stack(buf, true)])
		return strings.Count(stacks, "executor.(*Completion).Wait(") == callers
	})
	if n := runtime.NumGoroutine(); n > before+callers {
		t.Errorf("%d goroutines with %d callers parked, %d before them", n, callers, before)
	}
	if strings.Contains(stacks, "created by repro/internal/core.(*Runtime)") {
		t.Errorf("InvokeCtx started a goroutine of its own:\n%s", stacks)
	}
	release()
	wg.Wait()
}

// registrations is a context that can expire (it never does) and counts the
// context.AfterFunc registrations it holds: what a long-lived request
// context accumulates if an invocation does not release its own.
type registrations struct {
	context.Context // Background: no deadline, no values, and not a *cancelCtx
	never           chan struct{}
	live            atomic.Int64
}

func (r *registrations) Done() <-chan struct{} { return r.never }

func (r *registrations) AfterFunc(func()) (stop func() bool) {
	r.live.Add(1)
	var once sync.Once
	return func() bool {
		once.Do(func() { r.live.Add(-1) })
		return true
	}
}

// startsFirst is a pool whose PostTo returns only once the block is running.
type startsFirst struct {
	*executor.WorkerPool
	started chan struct{}
}

func (s startsFirst) PostTo(c *executor.Completion, fn func()) {
	s.WorkerPool.PostTo(c, fn)
	<-s.started
}

// TestInvokeCtxReleasesItsRegistration: in every mode the registration is
// gone once the join has returned or the block has started, whichever the
// mode has, and also when the post was refused.
func TestInvokeCtxReleasesItsRegistration(t *testing.T) {
	f := newFixture(t, 1)
	ctx := &registrations{Context: context.Background(), never: make(chan struct{})}
	for _, mode := range []Mode{Wait, Await, Nowait} {
		for i := 0; i < 20; i++ {
			if _, err := f.rt.InvokeCtx(ctx, "worker", mode, func(context.Context) {}); err != nil {
				t.Fatal(err)
			}
		}
		poll.Until(t, mode.String()+" registrations to be released", func() bool { return ctx.live.Load() == 0 })
	}

	// Nowait, queued: the registration lives exactly until the block starts.
	start := hold(f.pool)
	started, finish := make(chan struct{}), make(chan struct{})
	comp, err := f.rt.InvokeCtx(ctx, "worker", Nowait, func(context.Context) { close(started); <-finish })
	if err != nil {
		t.Fatal(err)
	}
	if n := ctx.live.Load(); n != 1 {
		t.Fatalf("%d registrations while the block is queued, want 1", n)
	}
	start()
	<-started
	poll.Until(t, "the started block to release its registration", func() bool { return ctx.live.Load() == 0 })
	close(finish)
	comp.Wait()

	// Nowait, started before InvokeCtx could register: the poster releases.
	eager := startsFirst{f.pool, make(chan struct{})}
	if err := f.rt.RegisterTarget("eager", eager); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	comp, err = f.rt.InvokeCtx(ctx, "eager", Nowait, func(context.Context) { close(eager.started); <-release })
	if err != nil {
		t.Fatal(err)
	}
	if n := ctx.live.Load(); n != 0 || comp.Finished() {
		t.Errorf("%d registrations (finished=%v) for a running block, want 0", n, comp.Finished())
	}
	close(release)
	comp.Wait()

	// Refused: the target was shut down behind the runtime's back.
	f.pool.Shutdown()
	for _, mode := range []Mode{Wait, Nowait} {
		comp, err := f.rt.InvokeCtx(ctx, "worker", mode, func(context.Context) {})
		if err != nil || !errors.Is(comp.Err(), executor.ErrShutdown) {
			t.Fatalf("%v: err=%v comp.Err=%v, want a completion carrying ErrShutdown", mode, err, comp.Err())
		}
	}
	if n := ctx.live.Load(); n != 0 {
		t.Fatalf("%d registrations left by refused posts", n)
	}
}

// TestInvokeCtxCancelledBlocksReturnTheirSpans: a hundred invocations whose
// deadline passes behind a gated worker leave no span open once the queue
// has drained.
func TestInvokeCtxCancelledBlocksReturnTheirSpans(t *testing.T) {
	f := newFixture(t, 1)
	sink := metrics.NewSpanSink(nil)
	t.Cleanup(trace.Use(sink))
	release := hold(f.pool)
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		comp, err := f.rt.InvokeCtx(ctx, "worker", Wait, func(context.Context) { t.Error("cancelled block ran") })
		cancel()
		if err != nil || !errors.Is(comp.Err(), context.DeadlineExceeded) {
			t.Fatalf("err=%v comp.Err=%v", err, comp.Err())
		}
	}
	poll.Until(t, "one OpDeadline per cancellation", func() bool { return sink.Target("worker").Deadlines.Value() == 100 })
	release()
	f.pool.Post(func() {}).Wait()
	poll.Until(t, "open spans to drain", func() bool { return sink.Open() == 0 })
}

// TestInvokeCtxThroughWrappers: a supervised pool and a chaos-wrapped one
// hand back the pool's own completion, so a block queued on them is cancelled
// at the deadline like any other.
func TestInvokeCtxThroughWrappers(t *testing.T) {
	reg := &gid.Registry{}
	targets := map[string]func() executor.Executor{
		"supervised": func() executor.Executor {
			return executor.NewSupervisedPool("w", 1, reg, executor.RestartConfig{})
		},
		"chaos-wrapped": func() executor.Executor {
			return chaos.New(1).Wrap(executor.NewWorkerPool("w", 1, reg))
		},
	}
	for name, build := range targets {
		t.Run(name, func(t *testing.T) {
			rt := NewRuntime(reg)
			defer rt.Shutdown()
			target := build()
			// Joined before the buffer is uninstalled: the worker ends the
			// cancelled block's span when it skips it.
			defer target.Shutdown()
			if err := rt.RegisterTarget("w", target); err != nil {
				t.Fatal(err)
			}
			buf := trace.NewBuffer(256)
			t.Cleanup(trace.Use(buf))
			defer hold(target)()

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			comp, err := rt.InvokeCtx(ctx, "w", Wait, func(context.Context) { t.Error("cancelled block ran") })
			if err != nil || !errors.Is(comp.Err(), context.DeadlineExceeded) {
				t.Fatalf("err=%v comp.Err=%v, want DeadlineExceeded", err, comp.Err())
			}
			poll.Until(t, "the canceller's OpDeadline", func() bool { return buf.CountOp(trace.OpDeadline) > 0 })
			if n := buf.CountOp(trace.OpDeadline); n != 1 {
				t.Fatalf("OpDeadline count = %d, want 1", n)
			}
		})
	}
}
