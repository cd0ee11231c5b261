// Package core implements the paper's primary contribution: the Pyjama
// runtime for the extended OpenMP `target virtual` directive. A virtual
// target is "a syntax-level abstraction of a thread pool executor" — the
// runtime keeps a registry of named targets, dispatches target blocks to
// them following Algorithm 1, and implements the four asynchronous execution
// modes of Table I:
//
//	default   — the encountering thread waits until the block finishes
//	nowait    — fire-and-forget; execution continues immediately
//	name_as   — fire, tagged; a later Wait(tag) joins all blocks so tagged
//	await     — fire; while the block runs, the encountering thread keeps
//	            processing other work from its own executor (the "logical
//	            barrier"), and continues past the block once it finishes
//
// Thread-context awareness (Algorithm 1 line 6): if the encountering
// goroutine is already a member of the destination target's thread group,
// the block runs synchronously in place, so e.g. a `target virtual(edt)`
// block inside code that is already on the EDT costs nothing and cannot
// deadlock.
//
// Because virtual targets share the host memory, blocks are ordinary Go
// closures: the "data-context sharing" property of Section III.B is the
// native behaviour of the language.
package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/sanitize"
	"repro/internal/trace"
)

// sanChecker is the optional confinement-sanitizer surface of an executor:
// SanCheck asserts (under -tags=ompsan) that the calling goroutine really
// belongs to the executor, with an independent gid stamp rather than the
// gid.Registry the inline decision was made from. eventloop.Loop and
// executor.WorkerPool implement it.
type sanChecker interface {
	SanCheck(op, subject string)
}

// Mode is the scheduling-property-clause of the extended target directive
// (Figure 5): one of default (zero value), Nowait, NameAs, Await.
type Mode int

const (
	// Wait is the default mode: the encountering thread blocks until the
	// target block completes (standard OpenMP `target` behaviour).
	Wait Mode = iota
	// Nowait detaches the block entirely (clause `nowait`).
	Nowait
	// NameAs detaches the block and registers it under a name tag for a
	// later Wait(tag) join (clause `name_as(tag)`).
	NameAs
	// Await detaches the block and places the encountering thread in the
	// logical barrier: it processes other pending work from its own
	// executor until the block finishes (clause `await`).
	Await
)

// String returns the clause spelling of the mode.
func (m Mode) String() string {
	switch m {
	case Wait:
		return "wait"
	case Nowait:
		return "nowait"
	case NameAs:
		return "name_as"
	case Await:
		return "await"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Errors reported by the runtime.
var (
	ErrUnknownTarget  = errors.New("core: unknown virtual target")
	ErrDuplicateName  = errors.New("core: virtual target name already registered")
	ErrNoTag          = errors.New("core: NameAs mode requires a non-empty tag")
	ErrNilBlock       = errors.New("core: nil target block")
	ErrRuntimeStopped = errors.New("core: runtime has been shut down")
)

// pendingRunner is the help-first surface an executor must provide for its
// members to participate in the await logical barrier.
type pendingRunner interface {
	TryRunPending() bool
	WaitPending(cancel <-chan struct{}) bool
}

// Runtime is the virtual-target runtime ("PjRuntime"). The zero value is not
// usable; create one with NewRuntime.
type Runtime struct {
	registry *gid.Registry

	// view is everything an invoke reads of the runtime, loaded without a
	// lock and never modified once published; registration and Shutdown
	// each publish a modified copy under mu.
	view  atomic.Pointer[view]
	mu    sync.Mutex      // serialises writers of view and guards owned
	owned map[string]bool // targets whose lifecycle we manage (Shutdown)

	groupMu sync.RWMutex
	groups  map[string]*nameGroup // tags with a block or a verdict left to join
	// spare keeps the groups WaitTag took out of the table for the next
	// first use of a tag: a program that joins a tag and then uses it again
	// would otherwise pay for a group and its slice every round (the
	// InvokeNamed+WaitTag budget row is one object). Guarded by groupMu.
	spare []*nameGroup
}

// maxSpareGroups bounds spare; it is above the number of tags any measured
// workload has between join and reuse at one time (edt_dispatch cycles 32).
const maxSpareGroups = 64

// view is one immutable snapshot of the runtime's registry.
type view struct {
	targets map[string]executor.Executor
	stopped bool
}

// NewRuntime returns a runtime using reg for goroutine affiliation (nil
// means gid.Default).
func NewRuntime(reg *gid.Registry) *Runtime {
	if reg == nil {
		reg = &gid.Default
	}
	r := &Runtime{
		registry: reg,
		owned:    make(map[string]bool),
		groups:   make(map[string]*nameGroup),
	}
	r.view.Store(&view{targets: map[string]executor.Executor{}})
	return r
}

// publish replaces the view with a copy that change has edited. Caller
// holds mu.
func (r *Runtime) publish(change func(v *view)) {
	next := *r.view.Load()
	next.targets = maps.Clone(next.targets)
	change(&next)
	r.view.Store(&next)
}

// RegisterEDT registers loop as the virtual target named name. It is the
// analogue of virtual_target_register_edt (Table II): in Pyjama the calling
// thread becomes the target; here the loop's dispatch goroutine is that
// thread. loop may be any executor with help-first support, but in practice
// it is an *eventloop.Loop.
func (r *Runtime) RegisterEDT(name string, loop executor.Executor) error {
	return r.RegisterTarget(name, loop)
}

// CreateWorker creates a worker virtual target named name backed by a pool
// of m goroutines (virtual_target_create_worker of Table II) and returns the
// pool. The runtime owns the pool and shuts it down in Shutdown.
func (r *Runtime) CreateWorker(name string, m int) (*executor.WorkerPool, error) {
	pool := executor.NewWorkerPool(name, m, r.registry)
	if err := r.register(name, pool, true); err != nil {
		// The name is taken, or Shutdown got here first and cannot have seen
		// this pool: stop it ourselves or its workers leak.
		pool.Shutdown()
		return nil, err
	}
	return pool, nil
}

// RegisterTarget registers an arbitrary executor as a virtual target. The
// runtime does not take ownership of its lifecycle.
func (r *Runtime) RegisterTarget(name string, e executor.Executor) error {
	if e == nil {
		return fmt.Errorf("core: nil executor for target %q", name)
	}
	return r.register(name, e, false)
}

// register publishes name → e unless the runtime has stopped or the name is
// taken; owned hands e's lifecycle to Shutdown.
func (r *Runtime) register(name string, e executor.Executor, owned bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.view.Load()
	if v.stopped {
		return ErrRuntimeStopped
	}
	if _, dup := v.targets[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	r.publish(func(v *view) { v.targets[name] = e })
	if owned {
		r.owned[name] = true
	}
	return nil
}

// resolve is an invoke's one registry read: the executor registered under
// name.
func (r *Runtime) resolve(name string) (executor.Executor, error) {
	v := r.view.Load()
	if v.stopped {
		return nil, ErrRuntimeStopped
	}
	e := v.targets[name]
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTarget, name)
	}
	return e, nil
}

// Invoke is InvokeTargetBlock (Algorithm 1) for the Wait, Nowait and Await
// modes. It dispatches block to the virtual target named target and applies
// the scheduling property:
//
//   - thread-context awareness: if the calling goroutine already belongs to
//     the target, block runs synchronously and the returned Completion is
//     already finished, whatever the mode;
//   - Wait: blocks until the target finished the block;
//   - Nowait: returns immediately;
//   - Await: enters the logical barrier (see AwaitCompletion) until the
//     block finishes;
//   - NameAs: use InvokeNamed, which carries the tag.
//
// The returned Completion carries a *executor.PanicError if the block
// panicked. In Wait and Await, and for a block run in place, it is a finished
// one made for the verdict (executor.NewCompletedCompletion), so a joined
// invoke allocates nothing.
func (r *Runtime) Invoke(target string, mode Mode, block func()) (*executor.Completion, error) {
	return r.invokePlain(target, mode, "", block)
}

// InvokeNamed dispatches block in NameAs mode under the given tag. Multiple
// blocks may share a tag; WaitTag(tag) joins all of them.
func (r *Runtime) InvokeNamed(target, tag string, block func()) (*executor.Completion, error) {
	return r.invokePlain(target, NameAs, tag, block)
}

// InvokeIf applies the directive's if-clause: when cond is false the
// directive is disabled for this invocation and block runs synchronously on
// the calling goroutine, exactly as if the directive were absent.
func (r *Runtime) InvokeIf(cond bool, target string, mode Mode, block func()) (*executor.Completion, error) {
	if !cond {
		if block == nil {
			return nil, ErrNilBlock
		}
		return executor.NewCompletedCompletion(executor.RunCaptured(block)), nil
	}
	return r.Invoke(target, mode, block)
}

// invokePlain is invoke for a context-free block: it runs in place under
// panic capture and is posted as it is.
func (r *Runtime) invokePlain(target string, mode Mode, tag string, block func()) (*executor.Completion, error) {
	return r.invoke(target, mode, tag, block == nil, true,
		func() error { return executor.RunCaptured(block) },
		func(e executor.Executor, c *executor.Completion) { e.PostTo(c, block) })
}

// invoke is Algorithm 1, the one skeleton every Invoke* entry point goes
// through. The entry points differ only in how the block runs in place
// (inPlace) and how it is handed to the target with a given completion
// (post); both are called at most once, on the calling goroutine, and do not
// escape, so they cost an invoke no allocation. nilBlock reports that the
// caller's block was nil; recyclable that nobody but the target and the
// joiner will hold the completion of a joined block (a cancellable
// InvokeCtx's registration may Cancel it after the join has returned), so
// Wait and Await may post with the joiner's recycled waiter node
// (executor.NewJoin) and return a finished completion carrying its verdict.
func (r *Runtime) invoke(target string, mode Mode, tag string, nilBlock, recyclable bool,
	inPlace func() error, post func(executor.Executor, *executor.Completion)) (*executor.Completion, error) {
	if nilBlock {
		return nil, ErrNilBlock
	}
	if mode == NameAs && tag == "" {
		return nil, ErrNoTag
	}
	e, err := r.resolve(target)
	if err != nil {
		return nil, err
	}
	if sink := trace.ActiveSink(); sink != nil {
		// The "invoke" span covers this whole scheduling decision: the
		// executor's enqueue path reads it as the spawn parent, so the
		// block's eventual run span — inline, posted, or helped inside an
		// await barrier — links back here.
		defer trace.Open(sink, "invoke", e.Name()).Close()
	}
	r.emit(trace.OpInvoke, e.Name(), mode)

	var comp *executor.Completion
	var join *executor.Waiter
	if e.Owns() {
		// Algorithm 1 lines 6-7: already in the target's execution context —
		// execute synchronously by the current thread. Under -tags=ompsan,
		// cross-validate the registry's membership answer against the
		// executor's own goroutine stamp before trusting it: an inline run
		// on a goroutine the target does not actually own is precisely the
		// confinement breach the sanitizer exists to catch.
		if sanitize.Enabled {
			if sc, ok := e.(sanChecker); ok {
				sc.SanCheck("inline invoke on", e.Name())
			}
		}
		r.emit(trace.OpInline, e.Name(), mode)
		comp = executor.NewCompletedCompletion(inPlace())
	} else {
		// Line 8: post asynchronously.
		r.emit(trace.OpPost, e.Name(), mode)
		if recyclable && (mode == Wait || mode == Await) {
			join = executor.NewJoin()
			comp = join.Completion()
		} else {
			comp = new(executor.Completion)
		}
		post(e, comp)
		if err := r.stoppedRejection(comp); err != nil {
			if join != nil {
				join.Join(nil)
			}
			return nil, err
		}
	}

	switch mode {
	case Nowait:
		// Lines 10-11: return directly.
	case NameAs:
		r.track(tag, comp)
	case Await:
		// Lines 13-16: logical barrier.
		if join != nil {
			owner, _ := r.registry.Owner().(pendingRunner)
			return r.joined(join, owner), nil
		}
		r.AwaitCompletion(comp)
	default: // Wait
		// Line 17: default option — suspend until finished.
		r.emit(trace.OpWait, e.Name(), mode)
		if join != nil {
			return r.joined(join, nil), nil
		}
		comp.Wait()
	}
	return comp, nil
}

// joined waits out a block posted with join's completion — parked, or in the
// logical barrier when owner is not nil — and returns a finished completion
// carrying its verdict: the join's own is recycled by then.
func (r *Runtime) joined(join *executor.Waiter, owner pendingRunner) *executor.Completion {
	var err error
	if owner == nil {
		err = join.Join(nil)
	} else {
		// The barrier sleeps on the join's wake token, passed as
		// WaitPending's cancel: the completion sends it, once, when it
		// finishes.
		err = join.Join(func(token <-chan struct{}) bool {
			return r.barrier(owner, join.Completion().Finished, token)
		})
	}
	return executor.NewCompletedCompletion(err)
}

// stoppedRejection inspects a just-posted completion for the shutdown race:
// resolve saw a live runtime, Shutdown won the race to the executor, and the
// post was rejected synchronously with executor.ErrShutdown. Invokers get
// the deterministic typed error ErrRuntimeStopped — the same answer they
// would have gotten had Shutdown run one instruction earlier — instead of a
// rejection surfacing through the completion. Rejections by targets shut
// down externally (runtime still live) are left to the completion: their
// lifecycle is the caller's.
func (r *Runtime) stoppedRejection(comp *executor.Completion) error {
	if comp.Finished() && errors.Is(comp.Err(), executor.ErrShutdown) && r.Stopped() {
		return ErrRuntimeStopped
	}
	return nil
}

// Stopped reports whether Shutdown has run.
func (r *Runtime) Stopped() bool { return r.view.Load().stopped }

// AwaitCompletion implements the logical barrier of Algorithm 1 lines 14-16:
// while comp is unfinished, the calling goroutine processes other pending
// work from its *own* executor — another event handler if it is an EDT,
// another queued task if it is a pool worker. A goroutine that belongs to no
// registered executor simply blocks (there is nothing for it to help with).
func (r *Runtime) AwaitCompletion(comp *executor.Completion) {
	if comp.Finished() {
		// Already done (inline execution, or the block beat us here): no
		// barrier to hold.
		return
	}
	owner, _ := r.registry.Owner().(pendingRunner)
	if owner == nil {
		comp.Wait()
		return
	}
	// What the barrier sleeps on is the registration's wake token, passed as
	// WaitPending's cancel: comp sends it, once, when it finishes.
	if w := comp.Register(); w != nil {
		w.Release(r.barrier(owner, comp.Finished, w.Token()))
	}
}

// AwaitDone is AwaitCompletion generalized to any completion channel; it is
// the bridge the paper's "further work" section asks for (integrating
// non-blocking and asynchronous I/O): any <-chan struct{} that is closed to
// signal — a context's Done, an I/O completion signal — can hold the
// encountering thread in the logical barrier.
func (r *Runtime) AwaitDone(done <-chan struct{}) {
	raised := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	if raised() {
		// Signal already raised: no barrier to hold, no helping to do.
		return
	}
	owner, _ := r.registry.Owner().(pendingRunner)
	if owner == nil {
		// Nothing to help with; park until the signal. Routed through
		// executor.BlockOn so that under the simulation executor (package
		// sim) the wait pumps the virtual scheduler instead of
		// deadlocking the single simulation goroutine.
		executor.BlockOn(done)
		return
	}
	r.barrier(owner, raised, done)
}

// barrier is the one help-first loop: until finished reports true, run the
// owner's pending work, sleeping in WaitPending when there is none until new
// work arrives or wake fires. It reports whether it left because WaitPending
// received from wake — for a wake token, that the token is spent.
func (r *Runtime) barrier(owner pendingRunner, finished func() bool, wake <-chan struct{}) bool {
	r.emit(trace.OpAwaitEnter, ownerName(owner), Await)
	defer r.emit(trace.OpAwaitExit, ownerName(owner), Await)
	for !finished() {
		if owner.TryRunPending() {
			r.emit(trace.OpHelped, ownerName(owner), Await)
			continue
		}
		if !owner.WaitPending(wake) {
			return true
		}
	}
	return false
}

// ownerName extracts the executor name for tracing.
func ownerName(owner pendingRunner) string {
	if n, ok := owner.(interface{ Name() string }); ok {
		return n.Name()
	}
	return ""
}

// nameGroup tracks the live completions submitted under one name tag.
type nameGroup struct {
	mu    sync.Mutex
	comps []*executor.Completion
	// err retains the first error verdict among pruned completions. Pruning
	// bounds memory on reused tags, but a block that finished — panicked —
	// before the next add on its tag must still surface through WaitTag;
	// whether it won that race is a pure accident of scheduling (found by
	// sim.Explore, seed pinned in internal/sim/testdata).
	err error
}

func (g *nameGroup) add(c *executor.Completion) {
	g.mu.Lock()
	// Prune already-finished entries so long-running programs that keep
	// reusing a tag don't accumulate completions without bound, keeping
	// only their first error verdict.
	live := g.comps[:0]
	for _, old := range g.comps {
		if !old.Finished() {
			live = append(live, old)
			continue
		}
		if err := old.Err(); err != nil && g.err == nil {
			g.err = err
		}
	}
	g.comps = append(live, c)
	g.mu.Unlock()
}

// takeErr consumes the retained pruned-block error.
func (g *nameGroup) takeErr() error {
	g.mu.Lock()
	err := g.err
	g.err = nil
	g.mu.Unlock()
	return err
}

// snapshot appends the tracked completions to buf, which lets a joiner keep a
// tag of ordinary width on its own stack.
func (g *nameGroup) snapshot(buf []*executor.Completion) []*executor.Completion {
	g.mu.Lock()
	buf = append(buf, g.comps...)
	g.mu.Unlock()
	return buf
}

// track adds c to tag's group, creating the group on the tag's first use —
// the only time an invoke locks the group table exclusively. A join that
// leaves nothing under the tag deletes the group, so the use after it is a
// first use again: a tag that is joined and reused round after round takes
// the exclusive lock twice a round (here and in WaitTag) where it took only
// the shared one while groups were kept for ever. The add is made under the
// table's lock, shared or not, and WaitTag deletes a group under the
// exclusive one: an add never lands in a group that is no longer there.
func (r *Runtime) track(tag string, c *executor.Completion) {
	r.groupMu.RLock()
	g := r.groups[tag]
	if g != nil {
		g.add(c)
	}
	r.groupMu.RUnlock()
	if g != nil {
		return
	}
	r.groupMu.Lock()
	g = r.groups[tag]
	if g == nil {
		if n := len(r.spare); n > 0 {
			g, r.spare = r.spare[n-1], r.spare[:n-1]
		} else {
			g = &nameGroup{}
		}
		r.groups[tag] = g
	}
	g.add(c)
	r.groupMu.Unlock()
}

// joinable returns tag's group — nil if nothing is tracked under the tag —
// and appends its tracked completions to buf. Group and completions are read
// under the table's lock: a group WaitTag deletes may be another tag's the
// next moment, so nobody reads one it found earlier.
func (r *Runtime) joinable(tag string, buf []*executor.Completion) (*nameGroup, []*executor.Completion) {
	r.groupMu.RLock()
	defer r.groupMu.RUnlock()
	g := r.groups[tag]
	if g == nil {
		return nil, buf
	}
	return g, g.snapshot(buf)
}

// retire reports whether the group holds nothing for a later join — every
// tracked block has finished, and every error verdict is among joined, the
// blocks whose verdicts the calling join has collected — and if so empties it
// for its next tag. The caller holds the group table exclusively, so no add is
// in flight, and has taken the retained verdict.
func (g *nameGroup) retire(joined []*executor.Completion) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range g.comps {
		if !c.Finished() || c.Err() != nil && !slices.Contains(joined, c) {
			return false
		}
	}
	clear(g.comps)
	g.comps = g.comps[:0]
	return true
}

// WaitTag suspends the calling goroutine until every target block instance
// submitted so far under tag has finished (the wait(name-tag) clause):
// "when a wait clause is applied with that name-tag, the encountering
// thread suspends until all the name-tag asynchronous target block
// instances finish". Waiting on a tag that was never used is a no-op. It
// returns the first error (captured panic) among the joined blocks, if any.
func (r *Runtime) WaitTag(tag string) error {
	var buf [16]*executor.Completion
	g, joined := r.joinable(tag, buf[:0])
	if g == nil {
		return nil
	}
	var first error
	for _, c := range joined {
		if err := c.Wait(); err != nil && first == nil {
			first = err
		}
	}
	// A program that tags per request must not keep a group per request:
	// once nothing is left under the tag, the tag is as good as never used.
	r.groupMu.Lock()
	if r.groups[tag] == g {
		// (True again, too, if another join retired g meanwhile and the
		// tag's next first use took it back from spare: it is this tag's
		// group either way, and retire keeps a group in which a block this
		// join did not collect is still running or has failed.)
		// A pruned block finished before any block still tracked, so its
		// retained verdict is the tag's first error.
		if err := g.takeErr(); err != nil {
			first = err
		}
		if g.retire(joined) {
			delete(r.groups, tag)
			if len(r.spare) < maxSpareGroups {
				r.spare = append(r.spare, g)
			}
		}
	}
	r.groupMu.Unlock()
	return first
}

// Wait joins multiple tags (wait(t1) wait(t2) ... on one directive).
func (r *Runtime) Wait(tags ...string) error {
	var first error
	for _, t := range tags {
		if err := r.WaitTag(t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PendingInTag returns the number of unfinished blocks currently tracked
// under tag (for tests and monitoring).
func (r *Runtime) PendingInTag(tag string) int {
	n := 0
	var buf [16]*executor.Completion
	_, comps := r.joinable(tag, buf[:0])
	for _, c := range comps {
		if !c.Finished() {
			n++
		}
	}
	return n
}

// emit records one scheduling decision — invoke, inline vs post, wait,
// await-enter/exit, each task helped inside a barrier — against the active
// trace sink, tagged with the calling goroutine's current span so decisions
// attach to span trees.
func (r *Runtime) emit(op trace.Op, target string, mode Mode) {
	s := trace.ActiveSink()
	if s == nil {
		return
	}
	s.Record(trace.Event{Op: op, Target: target, Mode: mode.String(), Gid: uint64(gid.Current()), Span: trace.Current()})
}

// PoolStats returns per-target executor statistics for every registered
// target whose executor exposes them: worker pools and event loops, which
// are pools of one.
func (r *Runtime) PoolStats() map[string]executor.Stats {
	out := make(map[string]executor.Stats)
	for name, e := range r.view.Load().targets {
		if p, ok := e.(interface{ Stats() executor.Stats }); ok {
			out[name] = p.Stats()
		}
	}
	return out
}

// Shutdown stops every worker target the runtime created (CreateWorker) and
// rejects further use. Externally registered targets (RegisterEDT,
// RegisterTarget) are not stopped: their lifecycle belongs to the caller.
func (r *Runtime) Shutdown() {
	r.mu.Lock()
	if r.view.Load().stopped {
		r.mu.Unlock()
		return
	}
	r.publish(func(v *view) { v.stopped = true })
	var toStop []executor.Executor
	for name, e := range r.view.Load().targets {
		if r.owned[name] {
			toStop = append(toStop, e)
		}
	}
	r.mu.Unlock()
	for _, e := range toStop {
		e.Shutdown()
	}
}
