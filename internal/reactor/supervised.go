package reactor

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/supervise"
	"repro/internal/trace"
)

// The supervised reactor closes the gap between panic containment and
// process death: contain() absorbs handler panics, but a bug in the reactor
// itself — or a chaos Kill, which runtime.Goexit's straight past recover —
// takes the poll goroutine down and with it every connection. Supervised
// wraps the reactor in a supervise.Supervisor through the same structural
// hooks the worker pools use (SetCrashHandler / FailPending), so a dead poll
// loop is replaced by a fresh generation under
// the usual restart budget and backoff. Listening sockets are owned here,
// not by any one generation: each restart re-registers the surviving fds via
// listenFD, so accepted service resumes on the same address with no
// close/bind window. In-flight connections do not survive — their fds died
// with the poller — but they fail fast with ErrPollCrash instead of hanging,
// and a supervise.Watchdog watching the target reports the outage.

// supListener is one listening socket owned by the Supervised wrapper and
// lent to each reactor generation.
type supListener struct {
	fd       int
	addr     string
	onAccept func(*Conn) HandlerFuncs
}

// Supervised is a reactor that survives its own poll loop. It exposes the
// serving surface of a Reactor (Listen, Drain, Stop, Stats, the chaos
// seams) and delegates lifecycle to a supervise.Supervisor: a poll-goroutine
// death replaces the reactor with a new generation; once the restart budget
// is exhausted the target is Failed and stays down. Handler panics are
// contained in each generation and restart nothing.
type Supervised struct {
	name   string
	reg    *gid.Registry
	rstats *survival // one set of counters for every generation
	sup    *supervise.Supervisor

	mu        sync.Mutex
	cur       *Reactor
	listeners []*supListener
	icpt      Interceptor
	ioIcpt    IOInterceptor
	closed    bool
}

// NewSupervised builds generation 0 of a supervised reactor. sopts tunes the
// restart policy.
func NewSupervised(name string, reg *gid.Registry, sopts supervise.Options) (*Supervised, error) {
	s := &Supervised{name: name, reg: reg, rstats: new(survival)}
	sup, err := supervise.New(name, s.spawn, sopts)
	if err != nil {
		return nil, err
	}
	s.sup = sup
	return s, nil
}

// spawn is the supervise.Factory: it builds one reactor generation,
// re-applies the chaos seams, and re-registers every surviving listener.
// Generation 0 runs synchronously inside NewSupervised; later generations
// run on the supervisor loop after a crash.
func (s *Supervised) spawn(gen int) (executor.Executor, error) {
	r, err := newReactor(s.name, s.reg, s.rstats)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		r.Stop()
		return nil, ErrClosed
	}
	s.cur = r
	icpt, ioIcpt := s.icpt, s.ioIcpt
	lns := append([]*supListener(nil), s.listeners...)
	s.mu.Unlock()
	if icpt != nil {
		r.SetInterceptor(icpt)
	}
	if ioIcpt != nil {
		r.SetIOInterceptor(ioIcpt)
	}
	for _, ln := range lns {
		if err := r.listenFD(ln.fd, ln.onAccept); err != nil {
			r.Stop()
			return nil, fmt.Errorf("reactor: re-register listener %s: %w", ln.addr, err)
		}
	}
	if gen > 0 {
		trace.Emit(trace.OpReactorRestart, s.name)
	}
	return newReactorExec(r), nil
}

// Listen binds a listening socket the Supervised wrapper owns and registers
// it with the current generation. The socket survives restarts: each new
// generation re-registers it, so the bound address keeps serving across
// poll-loop deaths. If the current generation is already gone (a restart in
// flight), the listener still attaches to the next one.
func (s *Supervised) Listen(addr string, onAccept func(*Conn) HandlerFuncs) (string, error) {
	fd, bound, err := sysListen(addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sysClose(fd)
		return "", ErrClosed
	}
	s.listeners = append(s.listeners, &supListener{fd: fd, addr: bound, onAccept: onAccept})
	r := s.cur
	s.mu.Unlock()
	if err := r.listenFD(fd, onAccept); err != nil && !errors.Is(err, ErrClosed) {
		s.mu.Lock()
		for i, ln := range s.listeners {
			if ln.fd == fd {
				s.listeners = append(s.listeners[:i], s.listeners[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		sysClose(fd)
		return "", err
	}
	return bound, nil
}

// current returns the live generation (nil only before generation 0 exists,
// which no caller can observe).
func (s *Supervised) current() *Reactor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Current exposes the live generation for inspection (tests, per-connection
// tuning). The pointer goes stale at the next restart.
func (s *Supervised) Current() *Reactor { return s.current() }

// Stats snapshots the current generation's counters. The survivability
// counters (panics, deadline closes, crashes, …) accumulate across
// generations; the traffic counters reset with each restart.
func (s *Supervised) Stats() Stats {
	r := s.current()
	if r == nil {
		return Stats{}
	}
	return r.Stats()
}

// SetInterceptor installs the readiness chaos seam on the current and all
// future generations.
func (s *Supervised) SetInterceptor(fn Interceptor) {
	s.mu.Lock()
	s.icpt = fn
	r := s.cur
	s.mu.Unlock()
	if r != nil {
		r.SetInterceptor(fn)
	}
}

// SetIOInterceptor installs the fd-level fault seam on the current and all
// future generations.
func (s *Supervised) SetIOInterceptor(fn IOInterceptor) {
	s.mu.Lock()
	s.ioIcpt = fn
	r := s.cur
	s.mu.Unlock()
	if r != nil {
		r.SetIOInterceptor(fn)
	}
}

// Drain gracefully stops the current generation (flush-before-close with
// deadline d, exactly like Reactor.Drain) and then shuts supervision down —
// a drained reactor must not be "helpfully" restarted.
func (s *Supervised) Drain(d time.Duration) {
	r := s.current()
	if r != nil {
		r.Drain(d)
	}
	s.Stop()
}

// Stop shuts supervision down, stops the current generation, and closes the
// wrapper-owned listening sockets. Safe to call more than once.
func (s *Supervised) Stop() {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	lns := s.listeners
	s.listeners = nil
	s.mu.Unlock()
	s.sup.Shutdown()
	if alreadyClosed {
		return
	}
	for _, ln := range lns {
		sysClose(ln.fd)
	}
}

// Health reports the supervision state (generation, restart budget, status).
func (s *Supervised) Health() supervise.TargetHealth { return s.sup.Health() }

// Supervisor exposes the underlying supervisor — register it with a
// supervise.Watchdog to get heartbeat liveness on top of restart health.
func (s *Supervised) Supervisor() *supervise.Supervisor { return s.sup }

// --- executor adapter -------------------------------------------------------

// reactorExec adapts a Reactor to executor.Executor so the supervision
// machinery (Supervisor restarts, Watchdog heartbeats) can treat the poll
// loop like any worker pool. Completions for posted fns are tracked here;
// FailPending fails the ones the dead loop will never run.
type reactorExec struct {
	r *Reactor
	// The reactor's own hooks: the supervisor attaches to the adapter and
	// the poll goroutine notifies through the reactor, one value for both.
	*executor.FaultHooks

	mu      sync.Mutex
	pending map[*executor.Completion]func(error)
}

func newReactorExec(r *Reactor) *reactorExec {
	return &reactorExec{r: r, FaultHooks: &r.FaultHooks, pending: make(map[*executor.Completion]func(error))}
}

// Name implements executor.Executor.
func (x *reactorExec) Name() string { return x.r.Name() }

// Post submits fn to the poll goroutine. A rejection (the reactor is
// stopped or crashed) completes the returned Completion immediately with an
// error wrapping supervise.ErrTargetDown. A panic in fn completes it with
// *executor.PanicError, counted like a handler panic.
func (x *reactorExec) Post(fn func()) *executor.Completion {
	c, finish := executor.NewPendingCompletion()
	x.mu.Lock()
	x.pending[c] = finish
	x.mu.Unlock()
	err := x.r.Post(func() {
		perr := executor.RunCaptured(fn)
		if perr != nil {
			x.r.rstats.handlerPanics.Add(1)
		}
		x.settle(c, perr)
	})
	if err != nil {
		x.settle(c, fmt.Errorf("reactor: post: %v: %w", err, supervise.ErrTargetDown))
	}
	return c
}

// settle completes c exactly once: whichever caller removes it from the
// tracking map performs the completion.
func (x *reactorExec) settle(c *executor.Completion, err error) {
	x.mu.Lock()
	finish, ok := x.pending[c]
	delete(x.pending, c)
	x.mu.Unlock()
	if ok {
		finish(err)
	}
}

// FailPending completes every tracked, unfinished Completion with err —
// called by the supervisor when replacing a crashed generation so waiters
// fail fast instead of hanging on a loop that no longer exists.
func (x *reactorExec) FailPending(err error) int {
	x.mu.Lock()
	fins := make([]func(error), 0, len(x.pending))
	for c, fin := range x.pending {
		delete(x.pending, c)
		fins = append(fins, fin)
	}
	x.mu.Unlock()
	for _, fin := range fins {
		fin(err)
	}
	return len(fins)
}

// Owns implements executor.Executor.
func (x *reactorExec) Owns() bool { return x.r.Owns() }

// TryRunPending implements executor.Executor. The reactor has no helping
// protocol — posted fns are poll-goroutine-confined by design.
func (x *reactorExec) TryRunPending() bool { return false }

// Shutdown implements executor.Executor: stop the reactor and fail whatever
// it never got to.
func (x *reactorExec) Shutdown() {
	x.r.Stop()
	x.FailPending(executor.ErrShutdown)
}

var _ executor.Executor = (*reactorExec)(nil)
