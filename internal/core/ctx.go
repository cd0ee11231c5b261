package core

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/executor"
	"repro/internal/trace"
)

// cancellablePoster is the executor capability InvokeCtx uses to revoke
// still-queued target blocks when their context expires. WorkerPool
// provides it; executors without it (e.g. the event loop) fall back to a
// run-time context check, so an expired block is skipped when dequeued
// even though it cannot be removed from the queue early.
type cancellablePoster interface {
	PostCancellable(fn func()) (*executor.Completion, func() bool)
}

// InvokeCtx is Invoke with deadline and cancellation propagation — the
// production form of the directive for servers, where a target block runs
// on behalf of a request that may abandon it. The context is passed into
// the block (so nested invocations and I/O inherit the deadline), and its
// expiry is reported through the returned Completion as ctx.Err()
// (context.DeadlineExceeded or context.Canceled):
//
//   - expired before dispatch: the block never runs;
//   - expired while queued: the queued task is cancelled via the
//     executor's PostCancellable when available (trace records
//     OpDeadline), otherwise skipped when it reaches the front;
//   - expired while running: the block is responsible for observing
//     ctx.Done() itself — a started block is never interrupted, matching
//     OpenMP's execution model (and Go's: goroutines cannot be killed).
//
// Modes behave as in Invoke; NameAs is not supported (use InvokeNamed,
// which has no context form). In Wait and Await modes the encountering
// thread stops waiting as soon as the Completion finishes, including by
// cancellation.
func (r *Runtime) InvokeCtx(ctx context.Context, target string, mode Mode, block func(context.Context)) (*executor.Completion, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// In place (directives off, or already on the target) the block still
	// respects an already-expired context; posted, it gets the cancellation
	// plumbing of postCtx.
	return r.invoke(target, mode, "", block == nil,
		func() error { return runBlockCtx(ctx, block) },
		func(e executor.Executor) *executor.Completion { return r.postCtx(ctx, e, mode, block) })
}

// runBlockCtx runs block inline with panic capture, short-circuiting to
// ctx.Err() if the context already expired.
func runBlockCtx(ctx context.Context, block func(context.Context)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return executor.RunCaptured(func() { block(ctx) })
}

// postCtx submits block asynchronously with cancellation plumbing. The
// returned Completion finishes with the block's outcome, or with ctx.Err()
// if the context expired before the block started.
func (r *Runtime) postCtx(ctx context.Context, e executor.Executor, mode Mode, block func(context.Context)) *executor.Completion {
	if ctx.Done() == nil {
		// Uncancellable context (Background): plain post, no watcher.
		return e.Post(func() { block(ctx) })
	}

	// skipped records that the body observed an expired context and
	// declined to run (the no-PostCancellable fallback path).
	var skipped atomic.Bool
	body := func() {
		if ctx.Err() != nil {
			skipped.Store(true)
			return
		}
		block(ctx)
	}

	var inner *executor.Completion
	cancel := func() bool { return false }
	if cp, ok := e.(cancellablePoster); ok {
		inner, cancel = cp.PostCancellable(body)
	} else {
		inner = e.Post(body)
	}
	if inner.Finished() && inner.Err() != nil && !skipped.Load() {
		// Synchronous rejection (shutdown, full queue): no watcher needed,
		// and returning it directly lets InvokeCtx see the typed error.
		return inner
	}

	outer, finish := executor.NewPendingCompletion()
	finishFromInner := func() {
		err := inner.Err()
		if skipped.Load() {
			err = ctx.Err()
			r.emit(trace.OpDeadline, e.Name(), mode)
		}
		finish(err)
	}
	go func() {
		select {
		case <-inner.Done():
			finishFromInner()
		case <-ctx.Done():
			if cancel() {
				// Won the race: the queued task will never run.
				r.emit(trace.OpDeadline, e.Name(), mode)
				finish(ctx.Err())
				return
			}
			// The body already started (or the executor rejected the
			// task); report its real outcome.
			<-inner.Done()
			finishFromInner()
		}
	}()
	return outer
}

// IsDeadline reports whether a Completion error is a context expiry
// (deadline exceeded or cancellation), as opposed to a panic or an
// executor rejection.
func IsDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}
