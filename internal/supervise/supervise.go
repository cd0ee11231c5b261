// Package supervise adds respawn-on-crash semantics and liveness monitoring
// to the virtual-target runtime. A Supervisor wraps a worker pool (or a
// middleware chain ending at one) behind the executor.Executor interface and
// keeps it serving through worker deaths: each death is repaired one-for-one
// by growing the pool back by one worker after an exponential backoff,
// bounded by a restart budget within a sliding window; once the budget is
// exhausted the target is marked failed and every further invocation fails
// fast with ErrTargetDown instead of queueing against a dead target. A
// Watchdog (watchdog.go) heartbeats registered loops and pools and flags the
// failure mode a supervisor cannot see from crash reports alone: the target
// that is still alive but not draining — a blocked EDT, a wedged pool, a
// queue past its sojourn bound.
//
// Both surface machine-readable health snapshots, which httpserver wires
// into /healthz, and both emit trace events (trace.OpRestart, trace.OpStall,
// trace.OpTargetDown) to the active sink (trace.Emit), so /metrics counts
// them and post-mortems can line failures up against the dispatch schedule
// that provoked them.
package supervise

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/trace"
)

// Status grades a target's health for reporting: Healthy targets have had a
// quiet window, Degraded targets respawned a worker recently, Down targets
// are out of restart budget.
type Status int

// The health grades, ordered by severity.
const (
	Healthy Status = iota
	Degraded
	Down
)

// String renders the status the way /healthz spells it.
func (s Status) String() string {
	switch s {
	case Healthy:
		return "ok"
	case Degraded:
		return "degraded"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrTargetDown fails invocations against a target whose restart budget is
// exhausted: the supervisor gave up, nothing will drain the queue, so
// callers get a typed error immediately instead of a hang.
var ErrTargetDown = errors.New("supervise: target down (restart budget exhausted)")

// Options tunes a Supervisor. Zero values pick the documented defaults.
type Options struct {
	// MaxRestarts is the respawn budget within Window (default 8). A crash
	// that finds MaxRestarts respawns inside one window marks the target
	// failed instead.
	MaxRestarts int
	// Window is the sliding window the budget applies to, and the quiet
	// period after which a Degraded target reads Healthy again
	// (default 10s).
	Window time.Duration
	// BackoffInitial is the delay before the first respawn in a window;
	// it doubles per respawn up to BackoffMax (defaults 10ms, 2s).
	BackoffInitial time.Duration
	BackoffMax     time.Duration
}

func (o *Options) fill() {
	if o.MaxRestarts <= 0 {
		o.MaxRestarts = 8
	}
	if o.Window <= 0 {
		o.Window = 10 * time.Second
	}
	if o.BackoffInitial <= 0 {
		o.BackoffInitial = 10 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
}

// unwrapper is middleware that exposes the executor it wraps (the chaos
// injector does), so the supervisor and the watchdog can reach the pool
// behind it.
type unwrapper interface{ Unwrap() executor.Executor }

// base walks the Unwrap chain to the innermost executor.
func base(e executor.Executor) executor.Executor {
	for {
		u, ok := e.(unwrapper)
		if !ok || u.Unwrap() == nil {
			return e
		}
		e = u.Unwrap()
	}
}

// Supervisor wraps an executor.Executor with respawn-on-crash semantics.
// It is itself an executor.Executor, so it registers as a virtual target
// like the executor it supervises. Crashes are handled one at a time by a
// dedicated goroutine; posts against a failed target fail fast with
// ErrTargetDown.
type Supervisor struct {
	name string
	e    executor.Executor    // what posts go to: the pool or its middleware
	pool *executor.WorkerPool // the base of e, which respawns grow
	opts Options

	// The counters Stats reads.
	nRespawns, nCrashes, nFailFast atomic.Int64

	// mu guards the fields below. Post holds it for reading across its
	// failed check and its post to e, and the give-up holds it for writing
	// to set failed, so every task of a Post that saw the target running is
	// queued before the give-up drains the queue.
	mu          sync.RWMutex
	failed      bool        // the budget is exhausted: nothing respawns any more
	restarts    []time.Time // respawn times within the sliding window
	total       int64       // lifetime respawns
	lastErr     error
	lastRestart time.Time

	failCh   chan error // crash reasons, in arrival order
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New starts supervising e under name. e must be a *executor.WorkerPool or
// middleware whose Unwrap chain ends at one: a respawn grows that pool. e's
// Post runs under the supervisor's read lock, so it must not block on the
// pool's workers or post to the supervisor.
func New(name string, e executor.Executor, opts Options) (*Supervisor, error) {
	pool, ok := base(e).(*executor.WorkerPool)
	if !ok {
		return nil, fmt.Errorf("supervise: %s: %T unwraps to %T, not a *executor.WorkerPool", name, e, base(e))
	}
	opts.fill()
	s := &Supervisor{
		name:   name,
		e:      e,
		pool:   pool,
		opts:   opts,
		failCh: make(chan error, 256),
		done:   make(chan struct{}),
	}
	// A task panic is not a crash: the pool contains it in the task's
	// Completion. A crash the pool held for want of a handler arrives now.
	pool.SetCrashHandler(func(v any) {
		s.nCrashes.Add(1)
		s.report(fmt.Errorf("supervise: worker crashed: %v", v))
	})
	s.wg.Add(1)
	go s.loop()
	return s, nil
}

// report queues a crash for the supervisor loop without blocking the
// reporting goroutine (which is mid-death). The channel is deep enough
// that a drop means hundreds of unprocessed crashes are already queued —
// by then the budget is long exhausted.
func (s *Supervisor) report(reason error) {
	select {
	case s.failCh <- reason:
	default:
	}
}

func (s *Supervisor) loop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case reason := <-s.failCh:
			s.handleCrash(reason)
		}
	}
}

// handleCrash runs in the supervisor loop, so crashes are handled strictly
// one at a time. Each one is a respawn, until the budget runs out.
func (s *Supervisor) handleCrash(reason error) {
	s.mu.Lock()
	if s.failed {
		s.mu.Unlock() // already given up
		return
	}
	now := time.Now()
	s.pruneLocked(now)
	s.lastErr = reason
	if len(s.restarts) >= s.opts.MaxRestarts {
		// Budget exhausted: mark the target down for good and fail
		// everything queued so no invocation waits on a dead target.
		s.failed = true
		s.mu.Unlock()
		trace.Emit(trace.OpTargetDown, s.name)
		s.pool.FailPending(ErrTargetDown)
		go s.e.Shutdown()
		return
	}
	s.restarts = append(s.restarts, now)
	s.total++
	s.lastRestart = now
	recent := len(s.restarts)
	// Counted before the respawn is published: whoever reads a Degraded
	// health finds the respawn behind it in the stats.
	s.nRespawns.Add(1)
	s.mu.Unlock()

	trace.Emit(trace.OpRestart, s.name)
	// One-for-one: replace just the dead worker. The surviving workers keep
	// serving, and queued and new tasks wait for the respawned one, while
	// Health reads Degraded.
	if s.sleep(s.backoff(recent)) {
		s.pool.Grow(1)
	}
}

// pruneLocked drops respawn timestamps older than the sliding window.
func (s *Supervisor) pruneLocked(now time.Time) {
	cut := now.Add(-s.opts.Window)
	i := 0
	for i < len(s.restarts) && s.restarts[i].Before(cut) {
		i++
	}
	if i > 0 {
		s.restarts = append(s.restarts[:0], s.restarts[i:]...)
	}
}

// backoff returns the delay before respawn n (1-based) of the window:
// BackoffInitial doubling per respawn, capped at BackoffMax.
func (s *Supervisor) backoff(n int) time.Duration {
	d := s.opts.BackoffInitial
	for i := 1; i < n; i++ {
		d *= 2
		if d >= s.opts.BackoffMax {
			return s.opts.BackoffMax
		}
	}
	if d > s.opts.BackoffMax {
		d = s.opts.BackoffMax
	}
	return d
}

// sleep waits d out unless the supervisor is shut down first, reporting
// whether the full duration elapsed.
func (s *Supervisor) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.done:
		return false
	}
}

// Name implements executor.Executor.
func (s *Supervisor) Name() string { return s.name }

// Post submits fn to the supervised executor, failing fast with
// ErrTargetDown once the target is out of restart budget.
func (s *Supervisor) Post(fn func()) *executor.Completion {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.failed {
		s.nFailFast.Add(1)
		return executor.NewCompletedCompletion(ErrTargetDown)
	}
	return s.e.Post(fn)
}

// Owns implements executor.Executor.
func (s *Supervisor) Owns() bool { return s.e.Owns() }

// TryRunPending implements executor.Executor.
func (s *Supervisor) TryRunPending() bool { return s.e.TryRunPending() }

// Unwrap exposes the supervised executor (the watchdog reads queue depths
// through it).
func (s *Supervisor) Unwrap() executor.Executor { return s.e }

// Shutdown stops supervising and shuts the supervised executor down. A
// respawn waiting out its backoff is abandoned.
func (s *Supervisor) Shutdown() {
	s.stopOnce.Do(func() { close(s.done) })
	s.wg.Wait()
	s.e.Shutdown()
}

// Stats is a snapshot of a supervisor's counters.
type Stats struct {
	Respawns int64 // a crashed worker was replaced
	Crashes  int64 // worker deaths the pool reported
	FailFast int64 // posts answered with ErrTargetDown
}

// Stats returns a snapshot of the supervisor's counters.
func (s *Supervisor) Stats() Stats {
	return Stats{Respawns: s.nRespawns.Load(), Crashes: s.nCrashes.Load(),
		FailFast: s.nFailFast.Load()}
}

// TargetHealth is a point-in-time health snapshot of one supervised target.
type TargetHealth struct {
	Name           string    `json:"name"`
	Status         string    `json:"status"`
	Restarts       int64     `json:"restarts"`        // lifetime respawns
	RecentRestarts int       `json:"recent_restarts"` // within the sliding window
	LastError      string    `json:"last_error,omitempty"`
	LastRestart    time.Time `json:"last_restart,omitempty"`
}

// StatusValue is the Status the snapshot's Status string encodes.
func (h TargetHealth) StatusValue() Status {
	switch h.Status {
	case Down.String():
		return Down
	case Degraded.String():
		return Degraded
	default:
		return Healthy
	}
}

// Health reports the target's current state. A target reads Degraded for
// one quiet Window after its last respawn, then Healthy again; a failed
// target reads Down.
func (s *Supervisor) Health() TargetHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked(time.Now())
	h := TargetHealth{
		Name:           s.name,
		Restarts:       s.total,
		RecentRestarts: len(s.restarts),
		LastRestart:    s.lastRestart,
	}
	if s.lastErr != nil {
		h.LastError = s.lastErr.Error()
	}
	switch {
	case s.failed:
		h.Status = Down.String()
	case len(s.restarts) > 0:
		h.Status = Degraded.String()
	default:
		h.Status = Healthy.String()
	}
	return h
}

var _ executor.Executor = (*Supervisor)(nil)
