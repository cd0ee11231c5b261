// Package executor provides the thread-pool machinery underneath the
// virtual-target runtime: task submission with completion tracking, one
// worker pool that realises both kinds of virtual target of Table II — the
// worker target of virtual_target_create_worker, and, as a pool of one, the
// event-dispatch thread of virtual_target_register_edt (package eventloop) —
// and the help-first scheduling hook (TryRunPending) that implements
// Algorithm 1's logical barrier — "process another runnable task in Pyjama's
// task queue" while an awaited target block is in flight.
//
// The pool registers its worker goroutines in a gid.Registry so the core
// runtime can answer the thread-context-awareness question "is the
// encountering thread already a member of this virtual target's thread
// group?" (Algorithm 1, line 6).
//
// Dispatch hot path: a worker pool is one FIFO queue (ChunkQueue) behind one
// mutex, which also guards a free list of queue nodes, with an atomic length
// mirror that producers, spinning workers and helpers read without the lock.
// Idle workers park on per-worker wake channels and are woken one at a time
// (no broadcast thundering herd, no wakeup at all while a worker is spinning
// — a spinner polls the queue length and will find the task itself). See
// DESIGN.md §15 for the protocol and its invariants.
package executor

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gid"
	"repro/internal/sanitize"
	"repro/internal/trace"
)

// ErrShutdown is returned (via Completion.Err) for tasks submitted to an
// executor that has been shut down.
var ErrShutdown = errors.New("executor: shut down")

// ErrWorkerCrashed is the terminal error of a task whose running goroutine
// died before the task body returned — runtime.Goexit (which defeats panic
// isolation) or a panic escaping the recovery wrapper. Without it a crashed
// worker would leave the task's waiters blocked forever; with it in-flight
// invocations fail fast.
var ErrWorkerCrashed = errors.New("executor: worker crashed while running task")

// ErrTargetDown is the refusal of a supervised pool whose restart budget is
// spent: no worker will be respawned, so queued and later tasks fail at once
// instead of waiting on a dead target.
var ErrTargetDown = errors.New("executor: target down (restart budget exhausted)")

// PanicError wraps a panic value recovered from a task body. Handler panics
// must never kill an executor's workers (a crashed EDT would freeze the
// whole application), so they are captured here instead.
type PanicError struct {
	Value any
}

func (e *PanicError) Error() string { return fmt.Sprintf("executor: task panicked: %v", e.Value) }

// Completion tracks the lifecycle of one submitted task. It is created by
// Post (or by the caller of PostTo) and finished once — when the task body
// returns, when the executor rejects it, or when Cancel revokes it while it
// is still queued; of several attempts, the first is the verdict.
//
// A completion owns no channel and nobody polls it. A goroutine that has to
// sleep until the verdict registers a waiter node — pushed onto the intrusive
// waiters stack — and receives on the node's own one-token channel, the idiom
// of parker.wake; complete swaps the stack for the closed mark, which is what
// Finished reads, and hands every node its token. Fire-and-forget submissions
// (Nowait mode — the dominant traffic under load) never touch the second word.
//
// The first word is the whole lifecycle, queued → running → verdict: nil
// while queued, &runningMark once Bracket.Run has claimed the body, and any
// other value is the verdict — &okVerdict or the boxed error. Each step is
// one CompareAndSwap. Run's and Cancel's both start from nil, so a queued
// task either runs or is cancelled, never both; complete starts from nil or
// the running mark and backs off from a verdict, so the first verdict wins.
type Completion struct {
	verdict atomic.Pointer[error]
	waiters atomic.Pointer[Waiter] // registered joiners, newest first; &closedWaiters once finished
}

// The lifecycle marks: distinct variables, compared by address only. The
// running mark holds a non-nil error, so a reader that forgot to map it to
// nil would show it rather than pass it off as success.
var (
	runningMark error = errors.New("executor: task running")
	okVerdict   error
)

// isVerdict reports whether v, a value of the verdict word, is a verdict.
func isVerdict(v *error) bool { return v != nil && v != &runningMark }

// box returns the verdict word's value for err. Only a non-nil error is
// boxed, in its own branch: taking err's address would box it on every call.
func box(err error) *error {
	if err == nil {
		return &okVerdict
	}
	boxed := err
	return &boxed
}

// Waiter is one registration on a Completion's stack. A joiner's node is
// woken through its token; a Done registration carries the channel Done
// handed out in done, which complete closes instead. A node taken by NewJoin
// also carries the completion its goroutine joins, in comp.
type Waiter struct {
	next  *Waiter
	token chan struct{} // cap 1, as old as the node
	done  chan struct{}
	comp  Completion // a join's completion (NewJoin); zero on the free list
}

// closedWaiters is the stack of every finished completion: no push succeeds
// once complete has swapped it in. It carries the closed done channel, so a
// second wake of one completion — a verdict overwritten — panics closing it
// instead of blocking forever on a nil token.
var closedWaiters = Waiter{done: closedDone}

// waiterFree is the free list of waiter nodes. It is a buffered channel and
// not a sync.Pool because it has to survive the collector: a pool is emptied
// by every collection, and at gui_kernels' collection rate each join would
// then pay for a node and its channel again. Leaky at both ends: empty, a
// node is allocated; full, a node is dropped. It holds 64 nodes because that
// is above the number of goroutines any measured workload has asleep in a join
// at one time (edt_dispatch keeps 32 events in flight) and, full, under 10 KiB.
var waiterFree = make(chan *Waiter, 64)

func newWaiter() *Waiter {
	select {
	case w := <-waiterFree:
		return w
	default:
		return &Waiter{token: make(chan struct{}, 1)}
	}
}

// freeWaiter returns w to the free list. Only the goroutine that registered
// w may call it, and only once w's token can no longer arrive — it was
// received, or the push failed — so a reused node never carries a stale token
// and is never received on by two goroutines. (complete frees a Done node
// itself: Done hands out the node's done channel, never the node.)
func freeWaiter(w *Waiter) {
	select {
	case waiterFree <- w:
	default:
	}
}

// push registers w, reporting false — w untouched by anybody else — if the
// completion has finished.
func (c *Completion) push(w *Waiter) bool {
	for {
		head := c.waiters.Load()
		if head == &closedWaiters {
			return false
		}
		w.next = head
		if c.waiters.CompareAndSwap(head, w) {
			return true
		}
	}
}

// closedDone is the done channel of every completion that finished before
// anybody asked for one.
var closedDone = make(chan struct{})

func init() { close(closedDone) }

// NewCompletedCompletion returns an already-finished Completion with the
// given error (nil for success). Used for synchronously executed blocks and
// for what a join returns. Success is one shared instance: a finished
// completion never changes — complete and Cancel back off from its verdict,
// Bracket.Run cannot claim it, no push succeeds — so nobody can tell it from
// a fresh one.
func NewCompletedCompletion(err error) *Completion {
	if err == nil {
		return completed
	}
	c := new(Completion)
	c.complete(err)
	return c
}

// completed is the finished success NewCompletedCompletion(nil) returns.
var completed = func() *Completion {
	c := new(Completion)
	c.complete(nil)
	return c
}()

// NewJoin takes a waiter node from the free list for a block whose caller
// joins it: the block is posted with the node's Completion (PostTo), and the
// caller's Join waits for it and recycles the node, so the join allocates
// nothing. Only the target's queue node and running frame and the joiner
// ever hold that completion — the caller gets NewCompletedCompletion's
// instead — which is why it may be reused, as the queue node is.
func NewJoin() *Waiter { return newWaiter() }

// Completion returns the completion a join posts with.
func (w *Waiter) Completion() *Completion { return &w.comp }

// Join waits until the node's completion has finished, returns its verdict
// and recycles the node: the two words are reset and the node goes back to
// the free list. Only the goroutine that called NewJoin may call it, once.
// The node parks on its own completion: it is pushed onto that completion's
// waiters stack and receives its own token. sleep, if not nil, is how the
// joiner waits instead of parking — core's await barrier, which runs its
// owner's pending work meanwhile: it is handed the token, returns once the
// completion has finished and reports whether it took the token. Without it
// the block hook is consulted first, as Wait does.
func (w *Waiter) Join(sleep func(token <-chan struct{}) bool) error {
	c := &w.comp
	switch {
	case c.Finished():
	case sleep == nil && c.hooked():
	case c.push(w):
		if sleep == nil || !sleep(w.token) {
			<-w.token
		}
	}
	err := c.Err()
	c.verdict.Store(nil)
	c.waiters.Store(nil)
	freeWaiter(w)
	return err
}

// NewPendingCompletion returns an unfinished Completion together with the
// function that completes it (the first call is the verdict, later ones are
// ignored): the completion protocol for work that is not a queued task — an
// I/O operation, a device transfer, a watcher goroutine mediating another
// completion.
func NewPendingCompletion() (*Completion, func(error)) {
	c := new(Completion)
	return c, c.complete
}

// RunCaptured invokes fn, converting a panic into a *PanicError. It is the
// panic-isolation wrapper shared by every executor: a handler crash must
// never take down the dispatching goroutine.
func RunCaptured(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r}
		}
	}()
	fn()
	return nil
}

// complete finishes the completion: one CompareAndSwap from queued or running
// to the verdict, so a verdict a joiner has read never changes. The verdict is
// stored before the closed mark, so whoever sees Finished sees it.
func (c *Completion) complete(err error) {
	cur := c.verdict.Load()
	if isVerdict(cur) {
		return
	}
	v := box(err)
	for !c.verdict.CompareAndSwap(cur, v) {
		if cur = c.verdict.Load(); isVerdict(cur) {
			return
		}
	}
	c.wake()
}

// Cancel revokes a task that is still queued: it finishes the completion with
// err and reports true if no executor had started the task — its body will
// then never run — and false, changing nothing, if the task has started,
// finished, been rejected or been cancelled before. It is safe from any
// goroutine at any time, on a completion from any executor: wrappers that
// return their inner executor's completion are cancellable through it. On a
// completion that is not a queued task (NewPendingCompletion) true means only
// that err is the verdict and the completer's later one is ignored.
func (c *Completion) Cancel(err error) bool {
	if c.verdict.Load() != nil || !c.verdict.CompareAndSwap(nil, box(err)) {
		return false
	}
	c.wake()
	return true
}

// wake is the half of complete and Cancel that follows the verdict: close the
// waiters stack and release every joiner on it.
func (c *Completion) wake() {
	for w := c.waiters.Swap(&closedWaiters); w != nil; {
		// A joiner may free w, and the next owner push it elsewhere, the
		// moment the token is sent: w is read and unlinked before that.
		next := w.next
		w.next = nil
		if w.done != nil {
			close(w.done)
			w.done = nil
			freeWaiter(w)
		} else {
			w.token <- struct{}{}
		}
		w = next
	}
}

// Done returns a channel closed when the task has finished (or was rejected):
// the form of the signal a select needs. It costs one object, the channel, on
// every call that finds the task pending; a finished completion hands out one
// shared closed channel.
func (c *Completion) Done() <-chan struct{} {
	if c.Finished() {
		return closedDone
	}
	ch := make(chan struct{})
	w := newWaiter()
	w.done = ch
	if !c.push(w) {
		w.done = nil
		freeWaiter(w)
		return closedDone
	}
	return ch
}

// Register registers the calling goroutine as a joiner and returns the
// registration, nil if the completion has already finished: its Token yields
// exactly one value, once the completion finishes. It is what Wait parks on,
// and what a joiner with other work to do meanwhile (core's await barrier)
// sleeps on. The caller must Release it.
func (c *Completion) Register() *Waiter {
	w := newWaiter()
	if !c.push(w) {
		freeWaiter(w)
		return nil
	}
	return w
}

// Token is the registration's wake channel.
func (w *Waiter) Token() <-chan struct{} { return w.token }

// Release ends the registration. It must be called by the goroutine that
// registered, after the completion has finished; received says whether that
// goroutine already took the token, and if not Release takes it now.
func (w *Waiter) Release(received bool) {
	if !received {
		<-w.token
	}
	freeWaiter(w)
}

// blockHook, when installed, is consulted before any goroutine in this
// package parks waiting for a completion (or, via BlockOn, an arbitrary
// done channel). It is the scheduler seam of the deterministic simulation
// executor (package sim): under simulation every task runs on one
// goroutine, so parking would deadlock — the hook instead pumps the
// simulation scheduler until ready() reports true. A hook that does not
// recognize the calling goroutine returns false and the caller parks
// normally, so real executors and simulated ones coexist in one process.
var blockHook atomic.Pointer[func(ready func() bool) bool]

// SetBlockHook installs h as the process-wide blocking seam and returns a
// function restoring the previous hook. h must return quickly with false
// for goroutines it does not manage; for managed goroutines it must not
// return until ready() is true. Passing nil h removes the hook.
func SetBlockHook(h func(ready func() bool) bool) (restore func()) {
	prev := blockHook.Load()
	if h == nil {
		blockHook.Store(nil)
	} else {
		blockHook.Store(&h)
	}
	return func() { blockHook.Store(prev) }
}

// BlockOn parks the calling goroutine until done is closed, routing the
// wait through the block hook first so code that blocks on raw channels
// (core.AwaitDone's no-owner path) still yields to the simulation
// scheduler instead of deadlocking it.
func BlockOn(done <-chan struct{}) {
	if p := blockHook.Load(); p != nil {
		ready := func() bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		}
		if (*p)(ready) {
			return
		}
	}
	<-done
}

// Wait blocks until the task has finished and returns its error, if any: the
// caller parks on a wake token that complete sends, with no yields in front
// of it (a short spin measured worse than none) and no allocation once the
// free list is warm.
func (c *Completion) Wait() error {
	if c.Finished() || c.hooked() {
		return c.Err()
	}
	if w := c.Register(); w != nil {
		w.Release(false)
	}
	return c.Err()
}

// hooked hands the wait for c to the block hook, reporting whether the hook
// took it (and c has then finished). The c.Finished method value allocates,
// so it is built only when there is a hook to hand it to.
func (c *Completion) hooked() bool {
	p := blockHook.Load()
	return p != nil && (*p)(c.Finished)
}

// Finished reports whether the task has completed without blocking.
func (c *Completion) Finished() bool {
	return c.waiters.Load() == &closedWaiters
}

// Err returns the task's terminal error: nil on success, a *PanicError if the
// body panicked, or ErrShutdown if it was rejected. Err returns nil while the
// task is still queued or running.
func (c *Completion) Err() error {
	if p := c.verdict.Load(); isVerdict(p) {
		return *p
	}
	return nil
}

// Executor is the common surface of the virtual-target execution engines.
type Executor interface {
	// Name returns the virtual target name this executor is registered as.
	Name() string
	// Post submits fn for asynchronous execution and returns its Completion.
	// Post never blocks on the task itself (it may briefly contend on the
	// queue lock, and under sustained overload it yields the processor once
	// per submission so workers can catch up).
	Post(fn func()) *Completion
	// PostTo is Post with the Completion supplied: c must be unfinished and
	// posted nowhere else, and the executor finishes it as it finishes
	// Post's own — run, rejected, or failed while queued. It is how a joiner
	// posts with its recycled waiter node (NewJoin), so a join allocates no
	// Completion.
	PostTo(c *Completion, fn func())
	// Owns reports whether the calling goroutine is a member of this
	// executor's thread group (Algorithm 1 line 6).
	Owns() bool
	// TryRunPending pops one pending task from this executor's queue and
	// runs it on the calling goroutine, returning true if a task was run.
	// This is the help-first primitive behind the await logical barrier.
	TryRunPending() bool
	// Shutdown stops the executor. Pending tasks are completed; tasks
	// submitted after Shutdown are rejected with ErrShutdown.
	Shutdown()
}

// Stats is a point-in-time snapshot of an executor's counters.
type Stats struct {
	Submitted  int64 // tasks accepted by Post
	Completed  int64 // task bodies that finished (including panics)
	Rejected   int64 // tasks rejected (shutdown)
	Helped     int64 // tasks run via TryRunPending rather than a worker
	Panics     int64 // task bodies that terminated by panicking
	Crashes    int64 // worker goroutines that died abnormally (Goexit/escaped panic)
	Steals     int64 // always 0: nothing is stolen from a single queue; kept because benchmark/ reads it
	QueuePeak  int64 // high watermark of the queue length
	QueueDepth int64 // current queue length
}

// Bracket is the run half of the dispatch bracket (DESIGN.md §12), the one
// realisation of Algorithm 1's "post a block to a virtual target, run it,
// signal its completion" that every executor's queue node embeds: the body
// plus the run-span id that carries causal tracing across the queue. The
// submitter's span is not kept: the OpEnqueue event records it, and
// trace.BuildTree parents the run span there, so a task keeps its submitter
// as the span parent no matter which worker or helping goroutine runs it.
type Bracket struct {
	// Fn is the task body. Run clears it, so a long-held Completion does
	// not pin the body's captures.
	Fn func()
	// span is the pre-allocated run-span id, zero unless a trace sink was
	// installed at enqueue time.
	span trace.SpanID
}

// Enqueued records that the task entered target's queue, caused by spawn
// (0 = the calling goroutine's current span). The OpEnqueue event and the
// eventual run span share one id: the Go execution trace sink uses the pair
// as one task from queue to run end, metrics as the queue-sojourn
// measurement, and BuildTree as the run span's causal parent.
func (b *Bracket) Enqueued(target string, spawn trace.SpanID) {
	if s := trace.ActiveSink(); s != nil {
		if spawn == 0 {
			spawn = trace.Current()
		}
		b.span = trace.NewSpanID()
		trace.Enqueue(s, b.span, target, spawn)
	}
}

// Run executes the task on the calling goroutine and finishes comp, in one
// fixed order: claim the task → begin the "run" span and make it current (so
// blocks that invoke further targets parent here) → body under panic capture
// → settled(err) → restore the previous current span and end the run span →
// comp finishes. A joiner therefore never wakes while its child's run span
// is still open. The run span's begin records the runner's current span as
// its parent; BuildTree prefers the submitter's span from the OpEnqueue event
// when one was active at enqueue time, so the runner's counts only without
// one — which is exactly the awaiting invoke's span when a helping thread
// runs the task inside a logical barrier.
//
// A node whose completion was cancelled while it sat in the queue loses the
// claim and is skipped: Run ends the span id taken at Enqueued, calls nothing
// (settled included — a skip is not a dispatch) and reports false.
//
// settled (may be nil) is the executor's hook for state a joiner may inspect
// the moment it wakes; it receives the body's error, a *PanicError if the
// body panicked. If the goroutine dies mid-task (runtime.Goexit, or a panic
// escaping settled) the span is still ended and comp then fails with
// ErrWorkerCrashed, so waiters never hang on a dead worker.
func (b *Bracket) Run(comp *Completion, target string, settled func(error)) bool {
	fn := b.Fn
	b.Fn = nil
	if !comp.verdict.CompareAndSwap(nil, &runningMark) {
		b.endUnrun(target)
		return false
	}
	var sink trace.Sink
	var prev trace.SpanID
	if b.span != 0 {
		if sink = trace.ActiveSink(); sink != nil {
			prev = trace.Swap(b.span)
			trace.BeginSpanID(sink, b.span, "run", target, prev)
		}
	}
	verdict := ErrWorkerCrashed
	defer func() {
		if sink != nil {
			trace.Swap(prev)
			trace.EndSpan(sink, b.span, "run", target)
		}
		comp.complete(verdict)
	}()
	err := RunCaptured(fn)
	if settled != nil {
		settled(err)
	}
	verdict = err
	return true
}

// Fail finishes comp with err for a task that is taken out of the queue, or
// never let in, without running: it ends the span id taken at Enqueued and
// reports whether err became the verdict (false: a Cancel got there first).
func (b *Bracket) Fail(comp *Completion, target string, err error) bool {
	b.Fn = nil
	b.endUnrun(target)
	return comp.Cancel(err)
}

// endUnrun ends the span id of a node that never began its run span, so a
// sink's open-span table does not keep the enqueue forever.
func (b *Bracket) endUnrun(target string) {
	if b.span == 0 {
		return
	}
	if sink := trace.ActiveSink(); sink != nil {
		trace.EndSpan(sink, b.span, "run", target)
	}
	b.span = 0
}

// DispatchInfo describes one task a pool ran, for instrumentation. The pool
// reads the clock only for an installed observer: a task queued before
// SetObserver reports Enqueued = Start, one already running Start = End.
type DispatchInfo struct {
	// Label is the label given at Post time ("" for unlabeled tasks).
	Label string
	// Enqueued is when the task entered the queue (fired).
	Enqueued time.Time
	// Start is when a goroutine of the pool began running the body.
	Start time.Time
	// End is when the body returned.
	End time.Time
	// Err is the body's captured panic, if any.
	Err error
}

// QueueDelay returns how long the task waited in the queue.
func (d DispatchInfo) QueueDelay() time.Duration { return d.Start.Sub(d.Enqueued) }

// Duration returns how long the body occupied its goroutine.
func (d DispatchInfo) Duration() time.Duration { return d.End.Sub(d.Start) }

// task is the pool's queue node, and the running frame's copy of it: the
// Bracket, the caller's Completion, and the label and enqueue stamp an
// observer reads (72 bytes, TestNodeSizes). Nodes are recycled through the
// pool's free list; the Completion is a separate 16-byte allocation because
// the caller keeps it for as long as it likes, long after the node is reused
// (a joiner's comes from its own recycled waiter node, PostTo).
type task struct {
	Bracket
	comp     *Completion
	label    string
	enqueued time.Time
	next     *task // free-list link
}

// maxFreeTasks bounds a pool's node free list: the same bound as the waiter
// free list, above the tasks any measured workload keeps queued at once.
const maxFreeTasks = 64

// parker is one idle worker's parking slot: a single-token wake channel,
// linked into the pool's LIFO idle stack. Waking a worker is one buffered
// channel send to exactly that worker — never a broadcast.
type parker struct {
	wake chan struct{} // cap 1
	next *parker
}

// worker is the per-goroutine state of one pool worker: its parking slot,
// which only that goroutine may sleep on — under -tags=ompsan park and every
// task it runs assert they run on the goroutine spawnWorker bound. No-op
// untagged.
type worker struct {
	pk  parker
	san sanitize.Home
}

const (
	// workerSpins is how many cooperative yields an idle worker burns before
	// parking. While any worker is in this phase the pool's spinning counter
	// is nonzero and Post skips the wakeup entirely — the spinner polls the
	// queue length and will find the task itself.
	workerSpins = 4
	// backpressureDepth is the backlog beyond which Post yields the processor
	// after enqueueing (soft flow control). Post still never blocks and never
	// runs foreign work inline — it only stops a flood of producers from
	// starving the workers and ballooning the live heap.
	backpressureDepth = 256
)

// WorkerPool is a fixed-size thread-pool executor: the realization of the
// paper's worker virtual target created by virtual_target_create_worker
// (Table II). Worker goroutines live for the pool's lifetime, mirroring
// "a virtual target is essentially a thread pool executor, and its lifecycle
// lasts throughout the program".
//
// It is one FIFO task queue that every worker pops: tasks start in submission
// order, a blocked or crashed worker strands nothing because the queue was
// never its own, and a pool of one worker is thread confinement — the
// event-dispatch thread of package eventloop is such a pool, plus what is the
// EDT's own. DESIGN.md §15 has the wakeup protocol.
type WorkerPool struct {
	name     string
	registry *gid.Registry
	// san tracks the worker-goroutine member set under -tags=ompsan:
	// SanCheck cross-validates the gid.Registry's thread-context-awareness
	// answer (core inlines a block only when the encountering goroutine is
	// a member) against this second, independent stamp. No-op untagged.
	san sanitize.Members

	// mu guards the idle stack and the lifecycle, qmu the queue. Neither is
	// ever taken while the other is held.
	mu       sync.Mutex
	parked   *parker // LIFO stack of idle (parked) workers
	shutdown bool
	nworkers int // Grow and crashes mutate it

	// restart is a supervised pool's respawn budget (nil: a dead worker stays
	// dead); respawns and record are what it has spent, under mu.
	restart  *RestartConfig
	respawns []time.Time // respawn times within the sliding window
	record   Restarts    // all but Recent, which is len(respawns)

	// qmu guards the queue and the node free list (free, nfree long): Post
	// takes a node where it pushes, pop returns it where it pops. Not a
	// sync.Pool, which the collector empties.
	qmu   sync.Mutex
	q     ChunkQueue[*task]
	free  *task
	nfree int

	// Hot-path state read without a lock.
	qlen atomic.Int64 // mirror of q.Len(), stored under qmu
	// stopped is nil while the pool takes tasks, then the error Post refuses
	// with: &ErrShutdown once Shutdown began, &ErrTargetDown once the pool
	// went down. Post checks it inside the queue critical section.
	stopped    atomic.Pointer[error]
	nparked    atomic.Int32  // mirror of the parked-stack size
	spinning   atomic.Int32  // workers in the pre-park spin phase
	extWaiters atomic.Int32  // goroutines blocked in WaitPending
	notify     chan struct{} // cap-1 wakeup for WaitPending
	observer   atomic.Pointer[func(DispatchInfo)]
	// idleHook, when set (export_test.go only), runs in workerLoop between a
	// pop that found the queue empty and its look at stopped.
	idleHook func()

	wg sync.WaitGroup

	submitted atomic.Int64
	peak      atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	helped    atomic.Int64
	panics    atomic.Int64
	crashes   atomic.Int64
}

// NewWorkerPool creates and starts a pool named name with n worker
// goroutines registered in reg (nil means gid.Default). n < 1 is clamped
// to 1, matching Pyjama's requirement that a worker target has at least one
// thread.
func NewWorkerPool(name string, n int, reg *gid.Registry) *WorkerPool {
	return newPool(name, max(n, 1), reg, nil)
}

// RestartConfig is a supervised pool's respawn budget. Zero values pick the
// documented defaults.
type RestartConfig struct {
	// MaxRestarts is the respawn budget within Window (default 8). A crash
	// that finds MaxRestarts respawns inside one window takes the pool down
	// instead.
	MaxRestarts int
	// Window is the sliding window the budget applies to, and the quiet
	// period after which a degraded target reads healthy again
	// (default 10s).
	Window time.Duration
	// BackoffInitial is the delay before the first respawn in a window;
	// it doubles per respawn up to BackoffMax (defaults 10ms, 2s).
	BackoffInitial time.Duration
	BackoffMax     time.Duration
}

func (c *RestartConfig) fill() {
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 8
	}
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.BackoffInitial <= 0 {
		c.BackoffInitial = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
}

// backoff returns the delay before respawn n (1-based) of the window:
// BackoffInitial doubling per respawn, capped at BackoffMax.
func (c *RestartConfig) backoff(n int) time.Duration {
	d := c.BackoffInitial
	for i := 1; i < n && d < c.BackoffMax; i++ {
		d *= 2
	}
	return min(d, c.BackoffMax)
}

// NewSupervisedPool is NewWorkerPool with a respawn budget, so the pool keeps
// its lifecycle through worker deaths: each dead worker is replaced one for
// one, by Grow(1) after a backoff, until a crash finds budget.MaxRestarts
// respawns inside one budget.Window. That crash takes the pool down:
// everything queued and every later Post fail with ErrTargetDown.
func NewSupervisedPool(name string, n int, reg *gid.Registry, budget RestartConfig) *WorkerPool {
	budget.fill()
	return newPool(name, max(n, 1), reg, &budget)
}

// newPool builds a pool and grows it by n workers (nil reg means
// gid.Default). It returns once all workers are registered.
func newPool(name string, n int, reg *gid.Registry, restart *RestartConfig) *WorkerPool {
	if reg == nil {
		reg = &gid.Default
	}
	p := &WorkerPool{name: name, registry: reg, restart: restart,
		q:      NewChunkQueue[*task](),
		notify: make(chan struct{}, 1)}
	p.Grow(n)
	return p
}

// spawnWorker launches one worker goroutine, sending on started once it is
// registered. The epilogue takes the worker off the live count, whatever the
// exit, and distinguishes the legitimate one (the shutdown or down drain
// returns normally from workerLoop) from a crash: runtime.Goexit or a panic
// escaping the task recovery unwinds with normal == false, which is counted
// and, in a supervised pool, respawns the worker or takes the pool down.
func (p *WorkerPool) spawnWorker(started chan<- struct{}) {
	w := &worker{pk: parker{wake: make(chan struct{}, 1)}}
	go func() {
		normal := false
		defer func() {
			v := recover()
			w.san.Unbind()
			p.san.Leave()
			p.registry.Deregister()
			p.mu.Lock()
			p.nworkers--
			p.mu.Unlock()
			if !normal || v != nil {
				p.workerCrashed(v)
			}
			p.wg.Done()
		}()
		p.registry.Register(p)
		w.san.Bind("worker", p.name)
		p.san.Join("workerpool", p.name)
		started <- struct{}{}
		// Label the worker goroutine with its virtual-target name so CPU
		// profiles attribute samples per target (pprof -tags).
		pprof.Do(context.Background(), pprof.Labels("target", p.name), func(context.Context) {
			p.workerLoop(w)
		})
		normal = true
	}()
}

// workerCrashed records an abnormal worker exit, which the epilogue has
// already taken off Workers. The queue is not touched: it was never the
// dead worker's own, so the survivors keep draining it, and when there are
// none it keeps accepting posts until Grow, FailPending or Shutdown empties
// it. A supervised pool decides under mu what the death costs: within the
// budget a respawn, counted before OpRestart announces it; past it, down.
func (p *WorkerPool) workerCrashed(reason any) {
	p.crashes.Add(1)
	p.mu.Lock()
	r := p.restart
	if r != nil && !p.shutdown && !p.record.Down {
		now := time.Now()
		p.pruneLocked(now)
		p.record.LastCrash = fmt.Errorf("worker crashed: %v", reason)
		if len(p.respawns) >= r.MaxRestarts {
			p.record.Down = true
			p.mu.Unlock()
			p.goDown()
			return
		}
		p.respawns = append(p.respawns, now)
		p.record.Total++
		p.record.LastRestart = now
		delay := r.backoff(len(p.respawns))
		p.mu.Unlock()
		trace.Emit(trace.OpRestart, p.name)
		time.AfterFunc(delay, func() { p.Grow(1) })
	} else {
		p.mu.Unlock()
	}
	// A consumer died; if work is queued and siblings are parked, hand the
	// wakeup on so the queue keeps draining.
	if p.qlen.Load() > 0 {
		p.wakeOne()
	}
}

// goDown publishes "down" the way Shutdown publishes "stopped": from the
// queue critical section on, Post refuses with ErrTargetDown; what was queued
// fails with it; and the parked workers are woken, so the survivors finish
// what they run and exit. Nothing joins them: a later Shutdown does.
func (p *WorkerPool) goDown() {
	p.qmu.Lock()
	p.stopped.Store(&ErrTargetDown)
	p.qmu.Unlock()
	p.FailPending(ErrTargetDown)
	trace.Emit(trace.OpTargetDown, p.name)
	p.wakeParked()
}

// pruneLocked drops respawn times older than the sliding window.
func (p *WorkerPool) pruneLocked(now time.Time) {
	if p.restart == nil {
		return
	}
	cut := now.Add(-p.restart.Window)
	i := 0
	for i < len(p.respawns) && p.respawns[i].Before(cut) {
		i++
	}
	p.respawns = append(p.respawns[:0], p.respawns[i:]...)
}

// Restarts is a snapshot of a supervised pool's respawn record.
type Restarts struct {
	Total       int64     // lifetime respawns
	Recent      int       // respawns within the sliding window
	LastCrash   error     // why the last worker died (nil: none has)
	LastRestart time.Time // when the last respawn was scheduled
	Down        bool      // the budget ran out: the pool refuses with ErrTargetDown
}

// Restarts returns the pool's respawn record (the zero value for a pool
// built without a budget).
func (p *WorkerPool) Restarts() Restarts {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pruneLocked(time.Now())
	r := p.record
	r.Recent = len(p.respawns)
	return r
}

// Crashes returns the number of worker goroutines that died abnormally.
func (p *WorkerPool) Crashes() int64 { return p.crashes.Load() }

// Name returns the pool's virtual-target name.
func (p *WorkerPool) Name() string { return p.name }

// wakeOne pops one parked worker and hands it a wake token (no-op when
// nobody is parked).
func (p *WorkerPool) wakeOne() {
	p.mu.Lock()
	pk := p.parked
	if pk != nil {
		p.parked = pk.next
		pk.next = nil
		p.nparked.Add(-1)
	}
	p.mu.Unlock()
	if pk != nil {
		pk.wake <- struct{}{}
	}
}

// spin is the pre-park idle phase: a few cooperative yields while polling
// the queue length. While at least one worker spins, Post skips the wake
// token entirely — the cheapest possible wakeup is the one never sent.
func (p *WorkerPool) spin() {
	p.spinning.Add(1)
	for i := 0; i < workerSpins; i++ {
		// Poll only the atomic length — no lock. Shutdown during the spin
		// just costs a few extra yields: the loop re-checks it after.
		if p.qlen.Load() > 0 {
			break
		}
		runtime.Gosched()
	}
	p.spinning.Add(-1)
}

// pop moves the oldest queued task into *t and returns its node to the free
// list (dropping it when the list is full), reporting false if there is none.
// The empty case is answered from the atomic length without the lock.
func (p *WorkerPool) pop(t *task) bool {
	if p.qlen.Load() == 0 {
		return false
	}
	p.qmu.Lock()
	n, ok := p.q.Pop()
	if ok {
		p.qlen.Store(int64(p.q.Len()))
		*t = *n
		if p.nfree < maxFreeTasks {
			*n = task{next: p.free}
			p.free = n
			p.nfree++
		}
	}
	p.qmu.Unlock()
	return ok
}

// run runs a popped task through the shared bracket (Bracket.Run) and settles
// the pool's own state before a joiner can look: the counters and the
// observer. A task cancelled while queued is skipped by Run and is not a
// dispatch: no counter moves and the observer hears nothing. The closure does
// not escape Run: no allocation. t is cleared afterwards, so the frame pins
// nothing while idle.
func (p *WorkerPool) run(t *task) bool {
	var start time.Time
	if p.observer.Load() != nil {
		start = time.Now()
	}
	ran := t.Run(t.comp, p.name, func(err error) {
		p.completed.Add(1)
		if _, ok := err.(*PanicError); ok {
			p.panics.Add(1)
		}
		if obs := p.observer.Load(); obs != nil {
			info := DispatchInfo{Label: t.label, Enqueued: t.enqueued, Start: start, End: time.Now(), Err: err}
			if info.Start.IsZero() {
				info.Start = info.End
			}
			if info.Enqueued.IsZero() {
				info.Enqueued = info.Start
			}
			(*obs)(info)
		}
	})
	*t = task{}
	return ran
}

// wakeForBacklog propagates the consumer wakeup: a worker that just took a
// task and can see more queued work wakes one parked sibling (unless a
// spinner already covers the queue). This is how a burst from a single
// producer fans out across the whole pool.
func (p *WorkerPool) wakeForBacklog() {
	if p.nparked.Load() > 0 && p.spinning.Load() == 0 && p.qlen.Load() > 0 {
		p.wakeOne()
	}
}

// park publishes the worker on the idle stack and blocks until a producer
// (or shutdown/crash handling) hands it a wake token. The no-lost-wakeup
// argument is a Dekker pair on sequentially consistent atomics: the producer
// stores the queue length and then loads nparked; the parking worker
// increments nparked and then re-reads the queue length. Whatever the
// interleaving, at least one side sees the other — either the producer sees
// the parked worker and wakes it, or the worker sees the task and unparks
// itself.
func (p *WorkerPool) park(w *worker) {
	w.san.Check("park on", p.name)
	p.mu.Lock()
	if p.shutdown {
		p.mu.Unlock()
		return // let the main loop handle the signal
	}
	w.pk.next = p.parked
	p.parked = &w.pk
	p.nparked.Add(1)
	p.mu.Unlock()
	if p.qlen.Load() > 0 || p.stopped.Load() != nil {
		// Work (or shutdown) raced our parking: take ourselves back off the
		// stack. If someone already popped us, their token is in flight —
		// fall through and consume it.
		p.mu.Lock()
		removed := false
		for pp := &p.parked; *pp != nil; pp = &(*pp).next {
			if *pp == &w.pk {
				*pp = w.pk.next
				w.pk.next = nil
				p.nparked.Add(-1)
				removed = true
				break
			}
		}
		p.mu.Unlock()
		if removed {
			return
		}
	}
	<-w.pk.wake
}

// workerLoop is one worker's life: pop the oldest task, spin briefly when
// there is none, then park until a producer hands over a token. The stop —
// Shutdown's, or the pool going down — is checked between tasks.
func (p *WorkerPool) workerLoop(w *worker) {
	var t task
	spun := false
	for {
		if p.pop(&t) {
			spun = false
			p.wakeForBacklog()
			w.san.Check("run a task on", p.name)
			p.run(&t)
			continue
		}
		if p.idleHook != nil {
			p.idleHook()
		}
		if p.stopped.Load() != nil {
			// Drain-before-exit: pop saw the queue empty before this load
			// saw the stop, so a Post that returned in between is still
			// queued — look again. Empty after the stop means every Post
			// that returned before Shutdown was called has been taken;
			// one still in flight concurrently with Shutdown may yet push,
			// and Shutdown's FailPending backstop fails it.
			if p.qlen.Load() == 0 {
				return
			}
			continue
		}
		if !spun {
			p.spin()
			spun = true
			continue
		}
		p.park(w)
		spun = false
	}
}

// Post submits fn for execution by the pool: PostLabeled without a label.
func (p *WorkerPool) Post(fn func()) *Completion { return p.PostLabeled("", fn) }

// PostTo submits fn with c as its Completion (Executor.PostTo), unlabeled.
func (p *WorkerPool) PostTo(c *Completion, fn func()) { p.postTo(c, "", fn) }

// PostLabeled submits fn with a label the observer sees in DispatchInfo. The
// Completion is the one allocation.
func (p *WorkerPool) PostLabeled(label string, fn func()) *Completion {
	c := new(Completion)
	p.postTo(c, label, fn)
	return c
}

// postTo is every post: take a node from the free list (a new one when it is
// empty), push it, publish the new length and watermark, wake at most one
// parked worker (none if a spinner will find the task anyway) and any
// goroutine in WaitPending, and apply soft backpressure when the queue is
// badly backlogged.
func (p *WorkerPool) postTo(comp *Completion, label string, fn func()) {
	b := Bracket{Fn: fn}
	b.Enqueued(p.name, 0)
	var stamp time.Time
	if p.observer.Load() != nil {
		stamp = time.Now()
	}
	p.qmu.Lock()
	if refusal := p.stopped.Load(); refusal != nil {
		// Checked inside the queue critical section: FailPending and goDown
		// drain the queue under this same lock after stopped is set, so a
		// task either lands before the drain (and is failed there) or the
		// producer sees stopped here. No stranding window, and a post racing
		// the pool going down is refused with ErrTargetDown either way.
		p.qmu.Unlock()
		p.rejected.Add(1)
		b.Fail(comp, p.name, *refusal)
		return
	}
	t := p.free
	if t != nil {
		p.free = t.next
		p.nfree--
	} else {
		t = new(task)
	}
	*t = task{Bracket: b, comp: comp, label: label, enqueued: stamp}
	n := int64(p.q.Push(t))
	p.qlen.Store(n)
	p.qmu.Unlock()
	p.submitted.Add(1)
	casMax(&p.peak, n)
	if p.spinning.Load() == 0 && p.nparked.Load() > 0 {
		p.wakeOne()
	}
	if p.extWaiters.Load() > 0 {
		select {
		case p.notify <- struct{}{}:
		default:
		}
	}
	if n > backpressureDepth {
		// Soft flow control: the queue is far ahead of its consumers, so
		// yield once. A flood of producers then hands the processor to the
		// workers instead of growing the backlog (and the live heap)
		// without bound; an occasional deep post just pays one Gosched.
		runtime.Gosched()
	}
}

// WaitPending blocks until the pool has at least one queued task or cancel
// fires, reporting whether pending work may be available. A true return is a
// hint, not a reservation — the caller should follow with TryRunPending and
// be prepared for it to find nothing (a worker may have taken the task).
// The await logical barrier alternates TryRunPending / WaitPending so a
// blocked encountering thread sleeps instead of spinning.
func (p *WorkerPool) WaitPending(cancel <-chan struct{}) bool {
	if p.qlen.Load() > 0 {
		return true
	}
	// Announce before the re-check: Post publishes the new queue length
	// before reading extWaiters, so one side always sees the other.
	p.extWaiters.Add(1)
	defer p.extWaiters.Add(-1)
	if p.qlen.Load() > 0 {
		return true
	}
	select {
	case <-p.notify:
		return true
	case <-cancel:
		return false
	}
}

// Owns reports whether the calling goroutine is one of the pool's workers
// (or is currently inlined inside one of its tasks).
func (p *WorkerPool) Owns() bool { return p.registry.IsOwnedBy(p) }

// SanCheck asserts (under -tags=ompsan) that the calling goroutine is one
// of the pool's worker goroutines, panicking with both stacks on
// violation. core.Runtime calls it when thread-context awareness chooses
// to inline a block, so the registry's membership answer is cross-checked
// against the sanitizer's independent stamp. No-op untagged.
func (p *WorkerPool) SanCheck(op, subject string) { p.san.Check(op, subject) }

// TryRunPending pops the oldest queued task and runs it on the calling
// goroutine. The paper's await barrier uses this so a worker waiting on a
// nested target block keeps draining the pool's queue instead of idling.
func (p *WorkerPool) TryRunPending() bool {
	var t task
	if !p.pop(&t) {
		return false
	}
	// A task cancelled while queued is skipped, and no help was given.
	ran := p.run(&t)
	if ran {
		p.helped.Add(1)
	}
	return ran
}

// Shutdown stops accepting tasks, drains the queue, and joins all workers.
// If every worker has crashed there is nobody left to drain: the queued
// tasks are then failed with ErrShutdown instead of being stranded forever.
// A pool that went down keeps refusing with ErrTargetDown. Called from a
// task on one of the pool's own workers it returns once the stop is published
// and the parked workers are woken (joining its own goroutine would never
// return): the workers drain and exit after the task does, and a later
// Shutdown from outside joins them and runs the backstop.
func (p *WorkerPool) Shutdown() {
	p.mu.Lock()
	if !p.shutdown {
		p.shutdown = true
		if !p.record.Down { // goDown publishes its own refusal
			p.stopped.Store(&ErrShutdown)
		}
	}
	p.mu.Unlock()
	p.wakeParked()
	if p.Owns() {
		return
	}
	p.wg.Wait()
	p.FailPending(ErrShutdown)
}

// wakeParked empties the idle stack and hands every worker on it a token.
func (p *WorkerPool) wakeParked() {
	p.mu.Lock()
	head := p.parked
	p.parked = nil
	p.nparked.Store(0)
	p.mu.Unlock()
	for head != nil {
		pk := head
		head, pk.next = pk.next, nil
		pk.wake <- struct{}{}
	}
}

// FailPending removes every queued-but-not-started task and completes it
// with err, returning how many were failed. Running tasks are untouched.
// Shutdown calls it as a backstop after joining workers.
func (p *WorkerPool) FailPending(err error) int {
	p.qmu.Lock()
	tasks := p.q.Drain(nil)
	p.qlen.Store(0)
	p.qmu.Unlock()
	n := 0
	for _, t := range tasks {
		if t.Fail(t.comp, p.name, err) {
			n++
		}
	}
	p.rejected.Add(int64(n))
	return n
}

// SetObserver installs fn to be called after every task the pool runs, on
// the goroutine that ran it, before its joiners wake; nil removes it.
func (p *WorkerPool) SetObserver(fn func(DispatchInfo)) {
	if fn == nil {
		p.observer.Store(nil)
		return
	}
	p.observer.Store(&fn)
}

// Workers returns the current number of worker goroutines (Grow raises it
// at runtime, every worker exit — a crash, or the drain after Shutdown or
// after the pool went down — lowers it).
func (p *WorkerPool) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nworkers
}

// Grow adds n worker goroutines to the pool — virtual targets "define
// their scale", and an application may widen a worker target when load
// demands it; a supervised pool respawning a crashed worker calls Grow(1),
// and the new worker finds whatever is queued. It returns once the new
// workers are registered. No-op for n <= 0, after Shutdown or once the pool
// is down.
func (p *WorkerPool) Grow(n int) {
	if n <= 0 {
		return
	}
	p.mu.Lock()
	if p.shutdown || p.record.Down {
		p.mu.Unlock()
		return
	}
	p.nworkers += n
	// Add under the lock: Shutdown flips p.shutdown under the same lock
	// before calling wg.Wait, so the counter can never grow concurrently
	// with the join.
	p.wg.Add(n)
	p.mu.Unlock()
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		p.spawnWorker(started)
	}
	for i := 0; i < n; i++ {
		<-started
	}
}

var _ Executor = (*WorkerPool)(nil)

// Stats returns a snapshot of the pool's counters, read without a lock.
func (p *WorkerPool) Stats() Stats {
	return Stats{
		Submitted:  p.submitted.Load(),
		Completed:  p.completed.Load(),
		Rejected:   p.rejected.Load(),
		Helped:     p.helped.Load(),
		Panics:     p.panics.Load(),
		Crashes:    p.crashes.Load(),
		QueuePeak:  p.peak.Load(),
		QueueDepth: p.qlen.Load(),
	}
}
