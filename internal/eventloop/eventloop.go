// Package eventloop implements the event-dispatch thread (EDT) of an
// event-driven application: a single goroutine draining a FIFO event queue,
// exactly the structure Section II of the paper describes ("execution of an
// event-driven application is achieved by an infinite loop with associated
// event listeners").
//
// The Loop is the realization of virtual_target_register_edt (Table II), and
// like virtual_target_create_worker's target it is "a thread pool executor":
// an executor.WorkerPool of one worker, whose queue, parking, posting, crash
// and stop protocol it uses as it is. What the loop adds is what is the EDT's
// own: InvokeAndWait (an error on the EDT itself), TryRunPending refused off
// the EDT — thread confinement is the whole point — and SanViolate. Its
// distinctive capability is *re-entrant pumping*: from inside a handler the
// EDT keeps dispatching further events (TryRunPending, sleeping in the pool's
// WaitPending when the queue is empty), which is how core.AwaitDone
// implements the paper's await logical barrier on the EDT ("the current
// experimental version of Pyjama achieves this by slightly modifying the
// event queue dispatching mechanism in the Java AWT runtime library").
package eventloop

import (
	"errors"

	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/sanitize"
)

// ErrOnEDT is returned by InvokeAndWait when called from the EDT itself
// (mirroring Swing, where invokeAndWait from the EDT is an error because it
// would deadlock the queue).
var ErrOnEDT = errors.New("eventloop: InvokeAndWait called on the event-dispatch goroutine")

// DispatchInfo describes one dispatched event, for instrumentation.
type DispatchInfo = executor.DispatchInfo

// Loop is a single-goroutine event dispatcher. Create with New, then Start;
// the pool's methods (PostTo, Owns, WaitPending, SetObserver, Stats, Crashes,
// FailPending, Shutdown) are the loop's once it has started.
//
// Post, PostLabeled and InvokeAndWait are declared here, not promoted from
// the pool: the static analysis (internal/analysis/dispatch) tells an EDT
// delivery from a worker delivery by the method's receiver type.
type Loop struct {
	*executor.WorkerPool
	name     string
	registry *gid.Registry
	// san stamps the dispatch goroutine as this loop's home context (bound
	// in Start) for SanViolate's two-stack report under -tags=ompsan.
	san sanitize.Home
}

// New creates a Loop named name whose dispatch goroutine registers itself in
// reg (nil means gid.Default). The loop is not running until Start.
func New(name string, reg *gid.Registry) *Loop {
	return &Loop{name: name, registry: reg}
}

// Start launches the event-dispatch goroutine and returns once it is
// registered (so Owns answers correctly immediately after Start).
func (l *Loop) Start() {
	l.WorkerPool = executor.NewWorkerPool(l.name, 1, l.registry)
	if sanitize.Enabled {
		l.Post(func() { l.san.Bind("eventloop", l.name) }).Wait()
	}
}

// Post enqueues fn as an event. Safe from any goroutine.
func (l *Loop) Post(fn func()) *executor.Completion { return l.WorkerPool.PostLabeled("", fn) }

// PostLabeled enqueues fn with a label used in DispatchInfo instrumentation.
func (l *Loop) PostLabeled(label string, fn func()) *executor.Completion {
	return l.WorkerPool.PostLabeled(label, fn)
}

// InvokeAndWait posts fn and blocks until it has been dispatched, returning
// the handler's error. Calling it from the EDT returns ErrOnEDT (Swing
// semantics: it would deadlock the queue). The event's completion is the
// caller's recycled waiter node (executor.NewJoin): it allocates nothing.
func (l *Loop) InvokeAndWait(fn func()) error {
	if l.Owns() {
		return ErrOnEDT
	}
	j := executor.NewJoin()
	l.PostTo(j.Completion(), fn)
	return j.Join(nil)
}

// TryRunPending dispatches one queued event on the calling goroutine if one
// is pending. It refuses to run events off the dispatch goroutine, so from
// any other goroutine it reports false without touching the queue.
func (l *Loop) TryRunPending() bool { return l.Owns() && l.WorkerPool.TryRunPending() }

// SanViolate reports a confinement violation an independent mechanism
// already detected (under -tags=ompsan), panicking with both the violating
// stack and the stack that bound the dispatch goroutine. No-op untagged —
// gate on sanitize.Enabled and keep a plain panic as the untagged path.
func (l *Loop) SanViolate(op string) { l.san.Violate(op) }

// QueuePeak returns the high watermark of the queue length.
func (l *Loop) QueuePeak() int64 { return l.Stats().QueuePeak }

// Stop rejects further posts, lets the loop drain already-queued events, and
// joins the dispatch goroutine (the pool's Shutdown). If the loop crashed,
// the undrainable remainder of the queue is failed with
// executor.ErrShutdown. Safe to call more than once. Called from one of the
// loop's own handlers it returns once the stop is scheduled: the loop drains
// and exits after the handler does, and a later Stop from outside joins it.
func (l *Loop) Stop() { l.Shutdown() }

var _ executor.Executor = (*Loop)(nil)
