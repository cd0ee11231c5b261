// Package supervise adds restart-on-crash semantics and liveness monitoring
// to the virtual-target runtime. A Supervisor wraps any executor.Executor
// behind the same interface and keeps it serving through worker deaths and
// reported failures: they trigger one-for-one worker respawns or full
// executor replacement with exponential backoff, bounded by a restart budget
// within a sliding window; once the budget is exhausted the target is marked
// failed and every further invocation fails fast with ErrTargetDown instead
// of queueing against a dead target. A Watchdog (watchdog.go) heartbeats
// registered loops and pools and flags the failure mode a supervisor cannot
// see from crash reports alone: the target that is still alive but not
// draining — a blocked EDT, a wedged pool, a queue past its sojourn bound.
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

// State is a supervised target's lifecycle state.
type State int

// The supervision states. Running targets accept work (a target respawning
// one worker stays Running); Restarting targets fail fast with ErrRestarting
// while a full replacement comes up; Failed targets exhausted their restart
// budget and fail fast with ErrTargetDown.
const (
	Running State = iota
	Restarting
	Failed
)

// String names the state.
func (s State) String() string {
	switch s {
	case Running:
		return "running"
	case Restarting:
		return "restarting"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Status grades a target's health for reporting: Healthy targets have had a
// quiet window, Degraded targets restarted recently (or are restarting now),
// Down targets are out of restart budget.
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

var (
	// ErrTargetDown fails invocations against a target whose restart
	// budget is exhausted: the supervisor gave up, nothing will drain the
	// queue, so callers get a typed error immediately instead of a hang.
	ErrTargetDown = errors.New("supervise: target down (restart budget exhausted)")

	// ErrRestarting fails invocations (and pending tasks of the replaced
	// executor) that arrive while a full restart is in progress.
	ErrRestarting = errors.New("supervise: target restarting")
)

// Factory builds one generation of a supervised executor. New builds
// generation 0; each full restart builds the next. The factory may wrap the
// executor (chaos middleware, tracing) — the supervisor walks
// Unwrap chains to attach its crash hook to the base.
type Factory func() (executor.Executor, error)

// Options tunes a Supervisor. Zero values pick the documented defaults.
type Options struct {
	// MaxRestarts is the restart budget within Window (default 8). Once
	// more than MaxRestarts restarts (respawns included) land inside one
	// window, the target transitions to Failed.
	MaxRestarts int
	// Window is the sliding window the budget applies to, and the quiet
	// period after which a Degraded target reads Healthy again
	// (default 10s).
	Window time.Duration
	// BackoffInitial is the delay before the first restart in a window;
	// it doubles per restart up to BackoffMax (defaults 10ms, 2s).
	BackoffInitial time.Duration
	BackoffMax     time.Duration
	// RespawnWorkers handles single worker deaths by growing the pool
	// back by one (one-for-one supervision) instead of replacing the
	// whole executor. Requires the base executor to implement
	// Grow(int); full replacement is the fallback.
	RespawnWorkers bool
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

// The structural interfaces the supervisor attaches through. Executors are
// matched by shape, not by concrete type, so middleware that forwards these
// methods (or exposes the base via Unwrap) keeps supervision working.
type (
	unwrapper     interface{ Unwrap() executor.Executor }
	crashNotifier interface{ SetCrashHandler(func(any)) }
	pendingFailer interface{ FailPending(error) int }
	grower        interface{ Grow(n int) }
)

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

// failPending fails every queued task of e with err, when e supports it.
func failPending(e executor.Executor, err error) {
	if pf, ok := base(e).(pendingFailer); ok {
		pf.FailPending(err)
	}
}

type failureKind int

const (
	kindCrash  failureKind = iota // a worker goroutine died
	kindManual                    // reported via ReportFailure
)

// failure is one reason to restart, tagged with the generation it belongs
// to so reports from an already-replaced executor are ignored.
type failure struct {
	gen    int
	kind   failureKind
	reason error
}

// Supervisor wraps an executor.Executor with restart-on-crash semantics.
// It is itself an executor.Executor, so it registers as a virtual target
// like the executor it supervises. Failures are handled one at a time by a
// dedicated goroutine; posts observe the current state and fail fast with a
// typed error when the target cannot accept work.
type Supervisor struct {
	name    string
	factory Factory
	opts    Options

	// The counters Stats reads.
	nRestarts, nRespawns, nCrashes, nFailFast atomic.Int64

	mu          sync.Mutex
	cur         executor.Executor
	state       State
	gen         int
	restarts    []time.Time // restart times within the sliding window
	total       int64       // lifetime restarts (respawns included)
	lastErr     error
	lastRestart time.Time

	failCh   chan failure
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds generation 0 via factory and starts supervising it under name.
func New(name string, factory Factory, opts Options) (*Supervisor, error) {
	opts.fill()
	s := &Supervisor{
		name:    name,
		factory: factory,
		opts:    opts,
		failCh:  make(chan failure, 256),
		done:    make(chan struct{}),
	}
	e, err := factory()
	if err != nil {
		return nil, fmt.Errorf("supervise: factory (generation 0): %w", err)
	}
	s.cur = e
	s.attach(e, 0)
	s.wg.Add(1)
	go s.loop()
	return s, nil
}

// attach hooks the supervisor into e's crash notifications, walking the
// Unwrap chain so middleware wrappers don't hide them. A task panic is not a
// failure: the executor contains it in the task's Completion.
func (s *Supervisor) attach(e executor.Executor, gen int) {
	if cn, ok := base(e).(crashNotifier); ok {
		cn.SetCrashHandler(func(v any) {
			s.nCrashes.Add(1)
			s.report(failure{gen: gen, kind: kindCrash,
				reason: fmt.Errorf("supervise: worker crashed: %v", v)})
		})
	}
}

// report queues a failure for the supervisor loop without blocking the
// reporting goroutine (which may be mid-death). The channel is deep enough
// that a drop means hundreds of unprocessed failures are already queued —
// by then the budget is long exhausted.
func (s *Supervisor) report(f failure) {
	select {
	case s.failCh <- f:
	default:
	}
}

// ReportFailure asks the supervisor to treat err as a failure of the
// current generation (for external health checks probing the target).
func (s *Supervisor) ReportFailure(err error) {
	s.mu.Lock()
	gen := s.gen
	s.mu.Unlock()
	s.report(failure{gen: gen, kind: kindManual, reason: err})
}

func (s *Supervisor) loop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case f := <-s.failCh:
			s.handleFailure(f)
		}
	}
}

// handleFailure runs in the supervisor loop, so failures are handled
// strictly one at a time; state is Running or Failed on entry.
func (s *Supervisor) handleFailure(f failure) {
	s.mu.Lock()
	if f.gen != s.gen || s.state == Failed {
		s.mu.Unlock() // stale generation, or already given up
		return
	}
	now := time.Now()
	s.pruneLocked(now)
	s.lastErr = f.reason
	if len(s.restarts) >= s.opts.MaxRestarts {
		// Budget exhausted: mark the target down for good and fail
		// everything queued so no invocation waits on a dead target.
		s.state = Failed
		old := s.cur
		s.mu.Unlock()
		trace.Emit(trace.OpTargetDown, s.name)
		failPending(old, ErrTargetDown)
		go old.Shutdown()
		return
	}
	s.restarts = append(s.restarts, now)
	s.total++
	s.lastRestart = now
	recent := len(s.restarts)
	gen := s.gen
	old := s.cur
	var gw grower
	if f.kind == kindCrash && s.opts.RespawnWorkers {
		gw, _ = base(old).(grower)
	}
	// Counted before the restart is published: whoever reads the state (or
	// a Degraded health) finds the respawn or restart behind it in the stats.
	if gw != nil {
		s.nRespawns.Add(1)
	} else {
		s.nRestarts.Add(1)
		s.state = Restarting
	}
	s.mu.Unlock()

	trace.Emit(trace.OpRestart, s.name)
	if gw != nil {
		// One-for-one: replace just the dead worker. The target stays
		// Running — the surviving workers keep serving, and queued and new
		// tasks wait for the respawned one — while Health reads Degraded.
		if s.sleep(s.backoff(recent)) {
			gw.Grow(1)
		}
		return
	}

	// Full restart: fail what the old executor still holds, replace it.
	failPending(old, ErrRestarting)
	go old.Shutdown()
	if !s.sleep(s.backoff(recent)) {
		return
	}
	next, err := s.factory()
	if err != nil {
		s.mu.Lock()
		s.state = Failed
		s.lastErr = fmt.Errorf("supervise: factory (generation %d): %w", gen+1, err)
		s.mu.Unlock()
		trace.Emit(trace.OpTargetDown, s.name)
		return
	}
	s.mu.Lock()
	s.cur = next
	s.gen = gen + 1
	s.state = Running
	newGen := s.gen
	s.mu.Unlock()
	s.attach(next, newGen)
}

// pruneLocked drops restart timestamps older than the sliding window.
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

// backoff returns the delay before restart n (1-based) of the window:
// BackoffInitial doubling per restart, capped at BackoffMax.
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

func (s *Supervisor) snapshot() (State, executor.Executor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, s.cur
}

// Name implements executor.Executor.
func (s *Supervisor) Name() string { return s.name }

// Post submits fn to the current generation, failing fast with
// ErrRestarting or ErrTargetDown when the target cannot accept work.
func (s *Supervisor) Post(fn func()) *executor.Completion {
	s.mu.Lock()
	st, e, gen := s.state, s.cur, s.gen
	s.mu.Unlock()
	if st == Running {
		comp := e.Post(fn)
		if !comp.Finished() || !errors.Is(comp.Err(), executor.ErrShutdown) {
			return comp
		}
		// e was shut down between the snapshot and the post. If that was
		// handleFailure replacing it, the post gets the typed answer it
		// would have got an instant later — the way core.stoppedRejection
		// types the same race. A generation that is still current was shut
		// down by Shutdown, and its rejection stands.
		s.mu.Lock()
		st = s.state
		if st == Running && s.gen != gen {
			st = Restarting // a whole restart went by
		}
		s.mu.Unlock()
		if st == Running {
			return comp
		}
	}
	s.nFailFast.Add(1)
	if st == Failed {
		return executor.NewCompletedCompletion(ErrTargetDown)
	}
	return executor.NewCompletedCompletion(ErrRestarting)
}

// Owns implements executor.Executor against the current generation.
func (s *Supervisor) Owns() bool {
	_, e := s.snapshot()
	return e != nil && e.Owns()
}

// TryRunPending implements executor.Executor against the current generation.
func (s *Supervisor) TryRunPending() bool {
	_, e := s.snapshot()
	return e != nil && e.TryRunPending()
}

// Unwrap exposes the current generation (the watchdog reads queue depths
// through it).
func (s *Supervisor) Unwrap() executor.Executor {
	_, e := s.snapshot()
	return e
}

// Shutdown stops supervising and shuts the current generation down.
// Restarts in flight are abandoned.
func (s *Supervisor) Shutdown() {
	s.stopOnce.Do(func() { close(s.done) })
	s.wg.Wait()
	s.mu.Lock()
	e := s.cur
	if s.state == Restarting {
		s.state = Failed
	}
	s.mu.Unlock()
	if e != nil {
		e.Shutdown()
	}
}

// Stats is a snapshot of a supervisor's counters.
type Stats struct {
	Restarts int64 // full restarts: the executor was replaced
	Respawns int64 // one-for-one respawns: a crashed worker was replaced
	Crashes  int64 // worker deaths the executor reported
	FailFast int64 // posts answered with ErrRestarting or ErrTargetDown
}

// Stats returns a snapshot of the supervisor's counters.
func (s *Supervisor) Stats() Stats {
	return Stats{Restarts: s.nRestarts.Load(), Respawns: s.nRespawns.Load(),
		Crashes: s.nCrashes.Load(), FailFast: s.nFailFast.Load()}
}

// TargetHealth is a point-in-time health snapshot of one supervised target.
type TargetHealth struct {
	Name           string    `json:"name"`
	State          string    `json:"state"`
	Status         string    `json:"status"`
	Generation     int       `json:"generation"`
	Restarts       int64     `json:"restarts"`        // lifetime, respawns included
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

// Health reports the target's current state. A target reads Degraded while
// restarting or for one quiet Window after its last restart, then Healthy
// again; Failed targets read Down.
func (s *Supervisor) Health() TargetHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked(time.Now())
	h := TargetHealth{
		Name:           s.name,
		State:          s.state.String(),
		Generation:     s.gen,
		Restarts:       s.total,
		RecentRestarts: len(s.restarts),
		LastRestart:    s.lastRestart,
	}
	if s.lastErr != nil {
		h.LastError = s.lastErr.Error()
	}
	switch {
	case s.state == Failed:
		h.Status = Down.String()
	case s.state == Restarting || len(s.restarts) > 0:
		h.Status = Degraded.String()
	default:
		h.Status = Healthy.String()
	}
	return h
}

var _ executor.Executor = (*Supervisor)(nil)
