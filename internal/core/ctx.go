package core

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/executor"
	"repro/internal/trace"
)

// InvokeCtx is Invoke with deadline and cancellation propagation — the
// production form of the directive for servers, where a target block runs
// on behalf of a request that may abandon it. The context is passed into
// the block (so nested invocations and I/O inherit the deadline), and its
// expiry is reported through the returned Completion as ctx.Err()
// (context.DeadlineExceeded or context.Canceled):
//
//   - expired before dispatch: the block never runs;
//   - expired while queued: the block is cancelled through its Completion
//     (trace records OpDeadline), whatever executor it is queued on, and a
//     thread joined on it wakes at the expiry, not when the target would
//     have reached the block;
//   - expired while running: the block is responsible for observing
//     ctx.Done() itself — a started block is never interrupted, matching
//     OpenMP's execution model (and Go's: goroutines cannot be killed).
//
// Modes behave as in Invoke; NameAs is not supported (use InvokeNamed,
// which has no context form). The Completion is the target's own: no second
// completion and no goroutine stand between the caller and the block. With a
// context that cannot expire (Done is nil) a join returns a finished one, as
// Invoke's does.
func (r *Runtime) InvokeCtx(ctx context.Context, target string, mode Mode, block func(context.Context)) (*executor.Completion, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// In place (directives off, or already on the target) the block still
	// respects an already-expired context; posted, it is cancellable until
	// it starts.
	var stop func() bool
	comp, err := r.invoke(target, mode, "", block == nil, ctx.Done() == nil,
		func() error { return runBlockCtx(ctx, block) },
		func(e executor.Executor, c *executor.Completion) { stop = r.postCtx(ctx, e, mode, c, block) })
	// A context that outlives its invocations must not collect their
	// registrations: once the join has returned (or the post was refused)
	// there is nothing left to cancel.
	if stop != nil && (err != nil || comp.Finished()) {
		stop()
	}
	return comp, err
}

// runBlockCtx runs block inline with panic capture, short-circuiting to
// ctx.Err() if the context already expired.
func runBlockCtx(ctx context.Context, block func(context.Context)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return executor.RunCaptured(func() { block(ctx) })
}

// blockStarted is what a Nowait block leaves in postCtx's hand-off slot when
// it gets there before the registration.
var blockStarted = func() bool { return false }

// postCtx posts block with comp and registers its cancellation with ctx: if
// ctx expires while the block is queued, the winner of Completion.Cancel
// emits OpDeadline. It returns the function that releases the registration
// (nil if there is none).
func (r *Runtime) postCtx(ctx context.Context, e executor.Executor, mode Mode, comp *executor.Completion, block func(context.Context)) func() bool {
	if ctx.Done() == nil {
		// Uncancellable context (Background): plain post.
		e.PostTo(comp, func() { block(ctx) })
		return nil
	}
	if err := ctx.Err(); err != nil {
		r.emit(trace.OpDeadline, e.Name(), mode)
		comp.Cancel(err)
		return nil
	}
	var handoff *atomic.Value // Nowait only: holds a func() bool
	var body func()
	if mode != Nowait {
		body = func() { block(ctx) }
	} else {
		// Nobody joins this block, so it releases the registration itself as
		// it starts. It may start before the registration exists: whichever
		// of the two swaps second finds the other's value and calls stop.
		handoff = new(atomic.Value)
		body = func() {
			if stop, _ := handoff.Swap(blockStarted).(func() bool); stop != nil {
				stop()
			}
			block(ctx)
		}
	}
	e.PostTo(comp, body)
	stop := context.AfterFunc(ctx, func() {
		if comp.Cancel(ctx.Err()) {
			r.emit(trace.OpDeadline, e.Name(), mode)
		}
	})
	if handoff != nil && handoff.Swap(stop) != nil {
		stop()
	}
	return stop
}

// IsDeadline reports whether a Completion error is a context expiry
// (deadline exceeded or cancellation), as opposed to a panic or an
// executor rejection.
func IsDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}
