// Package eventloop implements the event-dispatch thread (EDT) of an
// event-driven application: a single goroutine draining a FIFO event queue,
// exactly the structure Section II of the paper describes ("execution of an
// event-driven application is achieved by an infinite loop with associated
// event listeners").
//
// The Loop doubles as a virtual-target executor for the core runtime: it is
// the realization of virtual_target_register_edt (Table II). Its distinctive
// capability is *re-entrant pumping* — from inside a handler the EDT can keep
// dispatching further events (TryRunPending, sleeping in WaitPending when the
// queue is empty), which is how core.AwaitDone implements the paper's await
// logical barrier on the EDT ("the current experimental version of Pyjama
// achieves this by slightly modifying the event queue dispatching mechanism
// in the Java AWT runtime library").
//
// Dispatch hot path (PR 3): events flow through a pooled chunked ring queue
// (executor.ChunkQueue), event nodes are recycled through a bounded free list
// guarded by the queue's own mutex (a node goes back the moment it is popped,
// its event copied out to the dispatching frame), and the producer→EDT wakeup
// token is sent only when the dispatch goroutine is actually parked (the
// waiters counter), so a loop that is keeping up never pays a channel
// operation per Post.
//
// The worker pool (executor.WorkerPool) has the same shape with plural
// consumers: one mutex-guarded ChunkQueue, an atomic length mirror and
// parked-only wakeups. What the loop adds is what a single consumer allows —
// re-entrant pumping, timers and confinement.
package eventloop

import (
	"context"
	"errors"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/sanitize"
	"repro/internal/trace"
)

// ErrOnEDT is returned by InvokeAndWait when called from the EDT itself
// (mirroring Swing, where invokeAndWait from the EDT is an error because it
// would deadlock the queue).
var ErrOnEDT = errors.New("eventloop: InvokeAndWait called on the event-dispatch goroutine")

// DispatchInfo describes one dispatched event, for instrumentation. The loop
// reads the clock only for an installed observer: an event queued before
// SetObserver reports Enqueued = Start, one already running Start = End.
type DispatchInfo struct {
	// Label is the label given at Post time ("" for unlabeled events).
	Label string
	// Enqueued is when the event entered the queue (fired).
	Enqueued time.Time
	// Start is when the EDT began running the handler.
	Start time.Time
	// End is when the handler returned.
	End time.Time
	// Err is the handler's captured panic, if any.
	Err error
}

// QueueDelay returns how long the event waited in the queue.
func (d DispatchInfo) QueueDelay() time.Duration { return d.Start.Sub(d.Enqueued) }

// Duration returns how long the handler occupied the EDT.
func (d DispatchInfo) Duration() time.Duration { return d.End.Sub(d.Start) }

// item is one event: the loop's queue node, and the dispatching frame's copy
// of it. The Completion is a separate allocation because callers keep it long
// after the node is recycled.
type item struct {
	executor.Bracket
	comp     *executor.Completion
	enqueued time.Time
	label    string
	next     *item // free-list link
}

// maxFreeItems bounds the node free list: the same bound as the waiter free
// list, above the events any measured workload keeps queued at once.
const maxFreeItems = 64

// Loop is a single-goroutine event dispatcher. Create with New, then Start.
type Loop struct {
	name     string
	registry *gid.Registry
	// san stamps the dispatch goroutine as this loop's home context
	// (bound in run); every dispatched event asserts affinity against it
	// under -tags=ompsan, cross-validating the gid.Registry ownership the
	// rest of the runtime relies on. No-op in untagged builds.
	san sanitize.Home

	mu      sync.Mutex
	q       executor.ChunkQueue[*item]
	closed  bool
	delayed map[*time.Timer]*item // pending PostDelayed timers -> their events
	// free is the node free list, nfree its length. Not a sync.Pool, which the
	// collector empties: enqueue takes and popItem returns a node under mu,
	// which both hold anyway.
	free  *item
	nfree int

	// Hot-path state read without the lock.
	qlen    atomic.Int64 // mirror of q.Len(), updated under mu
	waiters atomic.Int32 // dispatch goroutine parked on notify (0 or 1)

	notify chan struct{} // cap-1 wakeup
	stopCh chan struct{}
	ready  chan struct{}
	wg     sync.WaitGroup

	// FaultHooks: the crash handler hears of the dispatch goroutine's
	// abnormal death (after Crashed reads true).
	executor.FaultHooks
	observer   atomic.Pointer[func(DispatchInfo)]
	crashed    atomic.Bool
	dispatched atomic.Int64
	peak       atomic.Int64
	depth      atomic.Int32 // dispatch nesting depth (1 = top level, >1 = pumping)
}

// New creates a Loop named name whose dispatch goroutine registers itself in
// reg (nil means gid.Default). The loop is not running until Start.
func New(name string, reg *gid.Registry) *Loop {
	if reg == nil {
		reg = &gid.Default
	}
	l := &Loop{
		name:     name,
		registry: reg,
		q:        executor.NewChunkQueue[*item](),
		delayed:  make(map[*time.Timer]*item),
		notify:   make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
		ready:    make(chan struct{}),
	}
	return l
}

// Start launches the event-dispatch goroutine and returns once it is
// registered (so Owns answers correctly immediately after Start).
func (l *Loop) Start() {
	l.wg.Add(1)
	go l.run()
	<-l.ready
}

func (l *Loop) run() {
	normal := false
	defer func() {
		v := recover()
		l.san.Unbind()
		l.registry.Deregister()
		if !normal || v != nil {
			// The dispatch goroutine died abnormally (runtime.Goexit in a
			// handler, or a panic that escaped recovery): the loop is dead
			// and its queue will never drain again. Record it so watchdogs
			// and supervisors can tell a crashed EDT from an idle one.
			l.loopCrashed(v)
		}
		l.wg.Done()
	}()
	l.registry.Register(l)
	l.san.Bind("eventloop", l.name)
	close(l.ready)
	// Label the dispatch goroutine with the loop's target name so CPU
	// profiles attribute EDT samples per target (go tool pprof -tags).
	pprof.Do(context.Background(), pprof.Labels("target", l.name), func(context.Context) {
		l.runLoop()
	})
	normal = true
}

func (l *Loop) runLoop() {
	var ev item
	for {
		if !l.next(&ev) {
			// Stop requested: drain whatever is already queued, then exit.
			for l.runOne() {
			}
			return
		}
		l.dispatch(&ev)
	}
}

// loopCrashed marks the loop dead and notifies the crash handler.
func (l *Loop) loopCrashed(reason any) {
	l.crashed.Store(true)
	l.NotifyCrash(reason)
}

// Crashed reports whether the dispatch goroutine died abnormally. A crashed
// loop never dispatches again; Stop will fail its remaining queue.
func (l *Loop) Crashed() bool { return l.crashed.Load() }

// FailPending removes every queued-but-undispatched event and completes it
// with err, returning how many were failed. Used when the loop has crashed
// and the queue can never drain.
func (l *Loop) FailPending(err error) int {
	l.mu.Lock()
	items := l.q.Drain(nil)
	l.qlen.Store(0)
	l.mu.Unlock()
	for _, it := range items {
		it.Fail(it.comp, l.name, err)
	}
	return len(items)
}

// popItem moves the oldest queued event into *ev under the lock and returns
// its node to the free list (dropping it when the list is full), reporting
// false if the queue is empty.
func (l *Loop) popItem(ev *item) bool {
	l.mu.Lock()
	it, ok := l.q.Pop()
	if !ok {
		l.mu.Unlock()
		return false
	}
	l.qlen.Store(int64(l.q.Len()))
	*ev = *it
	if l.nfree < maxFreeItems {
		*it = item{next: l.free}
		l.free = it
		l.nfree++
	}
	l.mu.Unlock()
	return true
}

// park sleeps the dispatch goroutine until an event may be queued (true) or
// abort fires (false; a nil abort is never watched). The protocol mirrors the
// worker pool's: announce intent via the waiters counter, re-check the
// (atomic) queue length, then sleep — enqueue publishes the length before
// reading the counter, so a wakeup is never lost.
func (l *Loop) park(abort <-chan struct{}) bool {
	l.waiters.Add(1)
	ok := l.qlen.Load() > 0
	if !ok {
		select {
		case <-l.notify:
			ok = true
		case <-abort:
		}
	}
	l.waiters.Add(-1)
	return ok
}

// next blocks until an event is available (moving it into *ev) or stop is
// requested with an empty queue (returning false).
func (l *Loop) next(ev *item) bool {
	for {
		if l.popItem(ev) {
			return true
		}
		if !l.park(l.stopCh) {
			return false
		}
	}
}

// dispatch runs one popped event through the shared bracket
// (executor.Bracket.Run) and adds what is the loop's own: the confinement
// check, the nesting depth and the observer. The depth counts the event once
// Run has won its claim; the rest is state a joiner may inspect the moment it
// wakes, so it is settled before the completion finishes. The closures do not
// escape Run: no allocation. An event cancelled while queued is skipped by
// Run and is not a dispatch: none of the loop's counters move, the depth
// included. ev is cleared afterwards, so the frame pins nothing while idle.
func (l *Loop) dispatch(ev *item) {
	l.san.Check("dispatch event on", l.name)
	var start time.Time
	if l.observer.Load() != nil {
		start = time.Now()
	}
	ev.Run(ev.comp, l.name, func() { l.depth.Add(1) }, func(err error) {
		l.depth.Add(-1)
		l.dispatched.Add(1)
		if obs := l.observer.Load(); obs != nil {
			info := DispatchInfo{Label: ev.label, Enqueued: ev.enqueued, Start: start, End: time.Now(), Err: err}
			if info.Start.IsZero() {
				info.Start = info.End
			}
			if info.Enqueued.IsZero() {
				info.Enqueued = info.Start
			}
			(*obs)(info)
		}
	})
	*ev = item{}
}

// runOne pops and dispatches a single queued event, reporting whether one
// was found. Must run on the dispatch goroutine.
func (l *Loop) runOne() bool {
	var ev item
	if !l.popItem(&ev) {
		return false
	}
	l.dispatch(&ev)
	return true
}

// Name returns the loop's virtual-target name.
func (l *Loop) Name() string { return l.name }

// Post enqueues fn as an event. Safe from any goroutine.
func (l *Loop) Post(fn func()) *executor.Completion { return l.PostLabeled("", fn) }

// PostLabeled enqueues fn with a label used in DispatchInfo instrumentation.
func (l *Loop) PostLabeled(label string, fn func()) *executor.Completion {
	comp := new(executor.Completion)
	l.enqueue(&item{Bracket: executor.Bracket{Fn: fn}, comp: comp, label: label}, 0)
	return comp
}

// enqueue is the shared admission path of PostLabeled and fired PostDelayed
// timers: copy the event into a node from the free list (a new one when it is
// empty), push it, publish length and peak off the lock, and wake the
// dispatch goroutine only if it is parked. spawn is the poster's span at the
// original call site (0 = the caller's current span) — PostDelayed captures
// it before the timer fires, since the timer goroutine itself carries no
// span.
func (l *Loop) enqueue(ev *item, spawn trace.SpanID) {
	if l.observer.Load() != nil {
		ev.enqueued = time.Now()
	}
	ev.Enqueued(l.name, spawn)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		ev.Fail(ev.comp, l.name, executor.ErrShutdown)
		return
	}
	it := l.free
	if it != nil {
		l.free = it.next
		l.nfree--
	} else {
		it = new(item)
	}
	*it = *ev
	n := int64(l.q.Push(it))
	l.qlen.Store(n)
	l.mu.Unlock()
	executor.CasMax(&l.peak, n)
	if l.waiters.Load() > 0 {
		select {
		case l.notify <- struct{}{}:
		default:
		}
	}
}

// PostDelayed enqueues fn after delay d (like javax.swing.Timer one-shots).
// The returned Completion finishes when the handler has run — or with
// executor.ErrShutdown if the loop stops first: the timer is cancelled by
// Stop instead of leaking past it, and no forwarding goroutine is burned
// waiting for the handler.
func (l *Loop) PostDelayed(d time.Duration, fn func()) *executor.Completion {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return executor.NewCompletedCompletion(executor.ErrShutdown)
	}
	comp := new(executor.Completion)
	it := &item{Bracket: executor.Bracket{Fn: fn}, comp: comp}
	var spawn trace.SpanID
	if trace.ActiveSink() != nil {
		spawn = trace.Current()
	}
	if d <= 0 {
		l.mu.Unlock()
		l.enqueue(it, spawn)
		return comp
	}
	var tm *time.Timer
	tm = time.AfterFunc(d, func() {
		l.mu.Lock()
		delete(l.delayed, tm)
		l.mu.Unlock()
		// enqueue rejects with ErrShutdown if Stop won the race, so the
		// completion always finishes exactly once: Stop only fails timers
		// it successfully cancelled (tm.Stop() == true), and a cancelled
		// timer never runs this callback.
		l.enqueue(it, spawn)
	})
	l.delayed[tm] = it
	l.mu.Unlock()
	return comp
}

// InvokeAndWait posts fn and blocks until it has been dispatched, returning
// the handler's error. Calling it from the EDT returns ErrOnEDT (Swing
// semantics: it would deadlock the queue).
func (l *Loop) InvokeAndWait(fn func()) error {
	if l.Owns() {
		return ErrOnEDT
	}
	return l.Post(fn).Wait()
}

// Owns reports whether the calling goroutine is the dispatch goroutine.
func (l *Loop) Owns() bool { return l.registry.IsOwnedBy(l) }

// SanCheck asserts (under -tags=ompsan) that the calling goroutine is the
// dispatch goroutine, panicking with both stacks on violation. Confined
// consumers of the loop (the gui toolkit's widgets, core's inline-invoke
// decision) call it at their mutation points; it is a no-op untagged.
func (l *Loop) SanCheck(op, subject string) { l.san.Check(op, subject) }

// SanViolate reports a confinement violation an independent mechanism
// already detected (under -tags=ompsan), panicking with both the violating
// stack and the stack that bound the dispatch goroutine. No-op untagged —
// gate on sanitize.Enabled and keep a plain panic as the untagged path.
func (l *Loop) SanViolate(op string) { l.san.Violate(op) }

// TryRunPending dispatches one queued event on the calling goroutine if one
// is pending. It refuses to run events off the dispatch goroutine — thread
// confinement is the whole point of an EDT — so from any other goroutine it
// reports false without touching the queue. The empty case is answered from
// the atomic length without taking the lock.
func (l *Loop) TryRunPending() bool {
	if !l.Owns() {
		return false
	}
	if l.qlen.Load() == 0 {
		return false
	}
	return l.runOne()
}

// WaitPending blocks until an event is queued or cancel fires, reporting
// whether pending work may be available (see executor.WorkerPool.WaitPending
// for the contract). Only the dispatch goroutine itself ever waits here (it
// is the only goroutine the registry affiliates with the loop), so it shares
// the waiters counter with next.
func (l *Loop) WaitPending(cancel <-chan struct{}) bool {
	return l.qlen.Load() > 0 || l.park(cancel)
}

// Depth returns the current dispatch nesting depth on the EDT: 0 when idle,
// 1 inside a normal handler, >1 while pumping inside an awaited block.
func (l *Loop) Depth() int { return int(l.depth.Load()) }

// Len returns the number of queued (not yet dispatched) events.
func (l *Loop) Len() int { return int(l.qlen.Load()) }

// Dispatched returns the total number of events dispatched so far.
func (l *Loop) Dispatched() int64 { return l.dispatched.Load() }

// QueuePeak returns the high watermark of the queue length.
func (l *Loop) QueuePeak() int64 { return l.peak.Load() }

// SetObserver installs fn to be called after every dispatched event.
func (l *Loop) SetObserver(fn func(DispatchInfo)) {
	if fn == nil {
		l.observer.Store(nil)
		return
	}
	l.observer.Store(&fn)
}

// Stop rejects further posts, cancels pending PostDelayed timers (their
// completions finish with executor.ErrShutdown), lets the loop drain
// already-queued events, and joins the dispatch goroutine. If the loop
// crashed, the undrainable remainder of the queue is failed with
// ErrWorkerCrashed. Safe to call more than once. Called from one of the
// loop's own handlers it returns once the stop is scheduled (joining its own
// goroutine would never return): the loop drains and exits after the handler
// does, and a later Stop from outside joins it.
func (l *Loop) Stop() {
	l.mu.Lock()
	var orphaned []*item
	if !l.closed {
		l.closed = true
		for tm, it := range l.delayed {
			if tm.Stop() {
				// The callback will never run; we own the event.
				orphaned = append(orphaned, it)
			}
			// Otherwise the callback is already firing: it will block on
			// mu, see closed==true, and finish the completion itself via
			// enqueue's ErrShutdown rejection.
			delete(l.delayed, tm)
		}
		close(l.stopCh)
	}
	l.mu.Unlock()
	for _, it := range orphaned {
		it.Fail(it.comp, l.name, executor.ErrShutdown)
	}
	if l.Owns() {
		return
	}
	l.wg.Wait()
	if l.crashed.Load() {
		l.FailPending(executor.ErrWorkerCrashed)
	}
}

// Shutdown implements executor.Executor; it is Stop.
func (l *Loop) Shutdown() { l.Stop() }

var _ executor.Executor = (*Loop)(nil)
