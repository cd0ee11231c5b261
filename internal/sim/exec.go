package sim

import (
	"time"

	"repro/internal/executor"
	"repro/internal/trace"
)

// Exec is a simulated executor. It implements the same surface as the real
// engines — executor.Executor plus the help-first pending-runner pair and
// the timed-post methods — but owns no goroutines: its queue is drained by
// the Sim scheduler, one seed-chosen task at a time, all on the simulation
// goroutine.
//
// Two flavors exist. A loop (NewLoop) models an event-driven target: strict
// FIFO dispatch, so only its head task is ever runnable — the scheduler
// chooses *when* the loop runs relative to other executors, never the order
// within it. A pool (NewPool) models n concurrent workers: the real pool
// starts tasks oldest-first, but with several workers running at once any
// queued task may be the next to reach a given point, so every one is a
// runnable alternative.
type Exec struct {
	s          *Sim
	name       string
	fifo       bool
	q          []*stask
	stopped    bool
	dispatched int64
}

func (s *Sim) newExec(name string, fifo bool) *Exec {
	e := &Exec{s: s, name: name, fifo: fifo}
	s.execs = append(s.execs, e)
	return e
}

// NewLoop creates a simulated event-loop target (FIFO dispatch).
func (s *Sim) NewLoop(name string) *Exec { return s.newExec(name, true) }

// NewPool creates a simulated worker-pool target (any-order dispatch).
func (s *Sim) NewPool(name string) *Exec { return s.newExec(name, false) }

// Name returns the virtual target name.
func (e *Exec) Name() string { return e.name }

// Len returns the current queue length.
func (e *Exec) Len() int { return len(e.q) }

// Dispatched returns how many tasks this executor has run.
func (e *Exec) Dispatched() int64 { return e.dispatched }

// take removes and returns the i-th queued task, preserving queue order.
func (e *Exec) take(i int) *stask {
	t := e.q[i]
	e.q = append(e.q[:i], e.q[i+1:]...)
	return t
}

// enqueue appends a task carrying the given spawn span (0 = capture the
// submitter's current span, matching real Post).
func (e *Exec) enqueue(fn func(), comp *executor.Completion, spawn trace.SpanID) {
	s := e.s
	t := &stask{Bracket: executor.Bracket{Fn: fn}, comp: comp, exec: e}
	if e.stopped {
		t.Fail(comp, e.name, executor.ErrShutdown)
		return
	}
	t.seq = s.nextSeq() // drawn only for admitted tasks: seqs appear in the decision log
	if s.policy == policyDelay && s.rng.Float64() < 0.4 {
		t.delay = 1 + s.rng.Intn(3)
	}
	t.Enqueued(e.name, spawn)
	e.q = append(e.q, t)
}

// Post submits fn and returns its Completion. Confinement rule: posts come
// from the simulation goroutine only (scenario body or simulated tasks) —
// a post from a stray goroutine would make the schedule depend on real
// thread timing, which is exactly what simulation removes.
func (e *Exec) Post(fn func()) *executor.Completion {
	comp := new(executor.Completion)
	e.PostTo(comp, fn)
	return comp
}

// PostTo is Post with the Completion supplied (executor.Executor.PostTo),
// under the same confinement rule.
func (e *Exec) PostTo(c *executor.Completion, fn func()) {
	e.s.checkGoroutine()
	e.enqueue(fn, c, 0)
}

// PostDelayed schedules fn after d of virtual time, then enqueues it like a
// normal post (so the scheduler still chooses its dispatch slot among peers
// due at that instant).
func (e *Exec) PostDelayed(d time.Duration, fn func()) *executor.Completion {
	s := e.s
	s.checkGoroutine()
	if e.stopped {
		return executor.NewCompletedCompletion(executor.ErrShutdown)
	}
	comp := new(executor.Completion)
	var spawn trace.SpanID
	if trace.ActiveSink() != nil {
		spawn = trace.Current()
	}
	s.addTimer(d, e.name, func() {
		e.enqueue(fn, comp, spawn)
	})
	return comp
}

// PostAt schedules fn at the virtual-clock instant at.
func (e *Exec) PostAt(at time.Time, fn func()) *executor.Completion {
	return e.PostDelayed(at.Sub(e.s.Now()), fn)
}

// Owns reports whether the current simulated context is a task of this
// executor (Algorithm 1 line 6 under simulation: the running task's
// executor identity, not a physical thread group).
func (e *Exec) Owns() bool {
	return e.s.onSim() && e.s.running == e
}

// TryRunPending pops one pending task and runs it on the calling context —
// the help-first primitive behind the await logical barrier. Under
// simulation only the executor's own running task may help (mirroring the
// real engines, where the helper must be a member thread); for a pool the
// scheduler chooses which queued task is helped, and the choice is recorded
// as a "help" decision.
func (e *Exec) TryRunPending() bool {
	s := e.s
	if !e.Owns() || len(e.q) == 0 {
		return false
	}
	idx, alts := 0, 1
	if !e.fifo && len(e.q) > 1 {
		alts = len(e.q)
		idx = s.rng.Intn(alts)
	}
	t := e.take(idx)
	s.log.Append(Decision{Step: s.steps, Kind: "help", Target: e.name, Seq: t.seq, Alts: alts, Virt: s.virt})
	s.steps++
	return s.run(t)
}

// WaitPending parks until this executor has pending work or cancel fires.
// Under simulation "parking" runs one global scheduler step instead: some
// other task or timer makes progress, after which the await loop re-checks.
// This is what makes the help-first barrier's blocking arm deterministic.
func (e *Exec) WaitPending(cancel <-chan struct{}) bool {
	s := e.s
	s.checkGoroutine()
	select {
	case <-cancel:
		return false
	default:
	}
	if len(e.q) > 0 {
		return true
	}
	if !s.step() {
		err := &DeadlockError{Waiting: "an await barrier on " + e.name, Trace: s.Trace()}
		if s.fatalErr == nil {
			s.fatalErr = err
		}
		panic(err)
	}
	return true
}

// Shutdown stops the executor: tasks already queued still run (the
// scheduler drains them), later submissions are rejected with ErrShutdown.
func (e *Exec) Shutdown() {
	e.s.checkGoroutine()
	e.stopped = true
}

var _ executor.Executor = (*Exec)(nil)
