// Package chaos is the runtime's fault-injection layer: a
// seeded-deterministic rule engine that provokes the failures supervision
// (executor.NewSupervisedPool, package supervise) exists to survive — task
// panics, worker deaths, dispatch delays, dropped tasks, and stalls — so
// overload and failure behaviour can be tested on purpose instead of waited
// for in production.
//
// Faults are described by Rules (by-target, by-rate, every-nth-call,
// bounded-count) evaluated by an Injector whose randomness comes from a
// caller-supplied seed: the same seed and call order reproduce the same
// fault schedule. The injector plugs in at three seams:
//
//   - Wrap turns any executor.Executor into one whose posted tasks are
//     subject to injection (the middleware used around worker pools);
//   - NetInterceptor adapts it to reactor.Reactor.SetInterceptor, where a
//     Drop decision suppresses the readiness event before it is dispatched;
//   - FDInterceptor adapts it to reactor.Reactor.SetIOInterceptor, the
//     fd-level seam below dispatch: short writes, spurious EAGAINs,
//     injected resets, and read latency land directly on the socket
//     syscalls.
//
// The injected failure modes:
//
//   - Panic: the task body panics (captured by the executor's panic
//     isolation — exercises panic accounting and restart thresholds);
//   - Kill: the running goroutine dies via runtime.Goexit, which defeats
//     panic isolation exactly like a crashed thread — the worker is gone
//     and the task's completion reports executor.ErrWorkerCrashed;
//   - Delay: the task sleeps before running (queueing delay / slow handler);
//   - Drop: the task is discarded (ErrInjectedDrop from Wrap, suppressed
//     readiness event from NetInterceptor);
//   - Stall: the task blocks — for Rule.Delay, or until Release — wedging
//     whatever thread runs it (the "frozen GUI" failure mode).
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/reactor"
)

// Action is an injected failure mode.
type Action int

// The failure modes an Injector can inject.
const (
	None Action = iota
	Panic
	Kill
	Delay
	Drop
	Stall
	// ShortWrite truncates a reactor write to one byte (fd seam only):
	// the remainder spills into the pending queue, exercising the partial
	// write and flush machinery under load.
	ShortWrite
	// SpuriousEAGAIN makes a reactor read or write report EAGAIN without
	// touching the socket (fd seam only). Under edge-triggered registration
	// a swallowed read edge stalls the connection until new bytes arrive —
	// the failure mode connection deadlines exist to reap.
	SpuriousEAGAIN
	// ResetOnWrite fails a reactor write with an injected connection reset
	// (fd seam only), tearing the connection down the way a peer RST does.
	ResetOnWrite
	numActions
)

// String names the action.
func (a Action) String() string {
	switch a {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Kill:
		return "kill"
	case Delay:
		return "delay"
	case Drop:
		return "drop"
	case Stall:
		return "stall"
	case ShortWrite:
		return "short-write"
	case SpuriousEAGAIN:
		return "spurious-eagain"
	case ResetOnWrite:
		return "reset-on-write"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// ErrInjectedDrop is the terminal error of a task dropped by a Drop rule at
// the executor middleware seam.
var ErrInjectedDrop = errors.New("chaos: task dropped by fault injection")

// InjectedPanic is the value thrown by a Panic rule, distinguishable from
// organic panics in panic handlers and logs.
type InjectedPanic struct {
	Target string
}

// Error makes an InjectedPanic usable as an error when captured by
// executor.PanicError.
func (p *InjectedPanic) Error() string {
	return fmt.Sprintf("chaos: injected panic (target %q)", p.Target)
}

func (p *InjectedPanic) String() string { return p.Error() }

// Rule selects when and how to inject one fault. A rule fires for a
// matching call when its Nth counter divides the call number, or else with
// probability Rate; both zero means the rule never fires.
type Rule struct {
	// Target restricts the rule to calls against this target name
	// ("" matches every target).
	Target string
	// Action is the fault to inject.
	Action Action
	// Rate fires the rule with this probability per matching call
	// (seeded-deterministic given a fixed call order).
	Rate float64
	// Nth fires the rule on every nth matching call (1-based; 0 disables
	// the counter). Nth rules are deterministic regardless of call
	// interleaving, which is what regression tests want.
	Nth int
	// After exempts the first After matching calls (warmup).
	After int
	// Count caps the number of injections from this rule (0 = unlimited),
	// bounding the storm so scenarios can recover.
	Count int
	// Delay is the sleep for Delay actions and the stall duration for
	// Stall actions (Stall with zero Delay blocks until Release).
	Delay time.Duration
}

type ruleState struct {
	Rule
	calls int64 // matching calls seen
	fired int64 // injections performed
}

// Injector evaluates rules and wraps tasks with their injected faults. All
// decisions draw from one seeded source under a lock, so a fixed seed and
// call order give a reproducible fault schedule; Nth-based rules are
// reproducible under any interleaving.
type Injector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	rules    []*ruleState
	released bool
	stallCh  chan struct{}

	disabled atomic.Bool
	injected [numActions]atomic.Int64
}

// New builds an injector from seed and rules. The zero-rule injector
// injects nothing.
func New(seed int64, rules ...Rule) *Injector {
	in := &Injector{
		rng:     rand.New(rand.NewSource(seed)),
		stallCh: make(chan struct{}),
	}
	for _, r := range rules {
		in.rules = append(in.rules, &ruleState{Rule: r})
	}
	return in
}

// SetEnabled turns injection on or off (on by default). A disabled
// injector passes every task through untouched.
func (in *Injector) SetEnabled(v bool) { in.disabled.Store(!v) }

// Injected returns how many faults of kind a have been injected.
func (in *Injector) Injected(a Action) int64 {
	if a < 0 || a >= numActions {
		return 0
	}
	return in.injected[a].Load()
}

// Release unblocks every Stall injection that is waiting without a
// duration (and any future ones — release is one-shot and permanent).
func (in *Injector) Release() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.released {
		in.released = true
		close(in.stallCh)
	}
}

// decide evaluates the rules for one call against target. Every matching
// rule advances its call counter (so Nth/After schedules stay aligned with
// the call stream); the first rule that fires wins.
func (in *Injector) decide(target string) (Action, time.Duration) {
	if in == nil || in.disabled.Load() {
		return None, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	act, delay := None, time.Duration(0)
	for _, r := range in.rules {
		if r.Target != "" && r.Target != target {
			continue
		}
		r.calls++
		if act != None {
			continue
		}
		if r.calls <= int64(r.After) {
			continue
		}
		if r.Count > 0 && r.fired >= int64(r.Count) {
			continue
		}
		fire := r.Nth > 0 && (r.calls-int64(r.After))%int64(r.Nth) == 0
		if !fire && r.Rate > 0 {
			fire = in.rng.Float64() < r.Rate
		}
		if fire {
			r.fired++
			in.injected[r.Action].Add(1)
			act, delay = r.Action, r.Delay
		}
	}
	return act, delay
}

// apply wraps fn with the decided fault. The wrapper runs wherever the
// executor runs the task, so Kill takes down the worker (or EDT) that
// picked it up.
func (in *Injector) apply(act Action, d time.Duration, target string, fn func()) func() {
	switch act {
	case Panic:
		return func() { panic(&InjectedPanic{Target: target}) }
	case Kill:
		return func() { runtime.Goexit() }
	case Delay:
		return func() { time.Sleep(d); fn() }
	case Stall:
		in.mu.Lock()
		ch := in.stallCh
		in.mu.Unlock()
		if d > 0 {
			return func() {
				select {
				case <-time.After(d):
				case <-ch:
				}
				fn()
			}
		}
		return func() { <-ch; fn() }
	case Drop:
		return func() {}
	default:
		return fn
	}
}

// Wrap returns an executor.Executor middleware around e: every Post and
// PostTo is subject to injection. Drop decisions reject the task with
// ErrInjectedDrop without reaching e; every other fault travels inside the
// task body, and the Completion is the one e finishes, so it stays
// cancellable. A supervised pool respawns a killed worker beneath the wrapper.
func (in *Injector) Wrap(e executor.Executor) executor.Executor {
	return &chaosExecutor{inner: e, inj: in}
}

type chaosExecutor struct {
	inner executor.Executor
	inj   *Injector
}

func (c *chaosExecutor) Name() string        { return c.inner.Name() }
func (c *chaosExecutor) Owns() bool          { return c.inner.Owns() }
func (c *chaosExecutor) TryRunPending() bool { return c.inner.TryRunPending() }
func (c *chaosExecutor) Shutdown()           { c.inner.Shutdown() }

func (c *chaosExecutor) Post(fn func()) *executor.Completion {
	comp := new(executor.Completion)
	c.PostTo(comp, fn)
	return comp
}

func (c *chaosExecutor) PostTo(comp *executor.Completion, fn func()) {
	act, d := c.inj.decide(c.inner.Name())
	if act == Drop {
		comp.Cancel(ErrInjectedDrop)
		return
	}
	c.inner.PostTo(comp, c.inj.apply(act, d, c.inner.Name(), fn))
}

// Stats delegates to the inner executor when it keeps counters (the
// watchdog reads queue depths through it).
func (c *chaosExecutor) Stats() executor.Stats {
	if sp, ok := c.inner.(interface{ Stats() executor.Stats }); ok {
		return sp.Stats()
	}
	return executor.Stats{}
}

var _ executor.Executor = (*chaosExecutor)(nil)

// NetInterceptor adapts the injector to reactor.Reactor.SetInterceptor, where
// a Drop decision suppresses the readiness event before it is dispatched (the
// second return reports whether to keep it).
func (in *Injector) NetInterceptor(target string) reactor.Interceptor {
	return func(event string, fn func()) (func(), bool) {
		act, d := in.decide(target)
		if act == Drop {
			return nil, false
		}
		return in.apply(act, d, target, fn), true
	}
}

// FDInterceptor adapts the injector to reactor.Reactor.SetIOInterceptor —
// the fd-level seam, below the dispatch layers the other adapters feed.
// ShortWrite and ResetOnWrite apply to writes, SpuriousEAGAIN to reads and
// writes, Delay to reads (injected read latency); any other action maps to
// no fault at this seam. A rule that fires for an operation its action does
// not apply to injects nothing but still advances its schedule, so give fd
// faults their own rules (or their own target) rather than sharing one rule
// with dispatch-level faults.
func (in *Injector) FDInterceptor(target string) reactor.IOInterceptor {
	return func(op reactor.IOOp, fd int) (reactor.IOFault, time.Duration) {
		act, d := in.decide(target)
		switch act {
		case ShortWrite:
			if op == reactor.IOWrite {
				return reactor.IOShort, 0
			}
		case SpuriousEAGAIN:
			return reactor.IOAgain, 0
		case ResetOnWrite:
			if op == reactor.IOWrite {
				return reactor.IOReset, 0
			}
		case Delay:
			if op == reactor.IORead {
				return reactor.IODelay, d
			}
		}
		return reactor.IONone, 0
	}
}
