// Package sim is a deterministic simulation executor for the virtual-target
// runtime: a virtual-clock, single-goroutine scheduler that implements the
// same dispatch surfaces as the real executors (Post, PostDelayed/PostAt,
// completions, help-first pending-runner hooks) but makes every scheduling
// choice — which runnable task runs next, which queued task a helping
// thread pops, which due timer fires — a pure function of a seed.
//
// The paper's Algorithm 1 semantics (name_as/wait/await, EDT confinement)
// are ordering properties. Span trees (PR 5) let us *observe* the schedule
// a real run happened to take; seeded chaos (PR 2) perturbs timing but not
// order. This package closes the gap by *controlling* the schedule:
// Explore replays a scenario across systematically perturbed interleavings
// (uniform random walk, LIFO bias, delay injection — a DPOR-lite
// perturbation at dispatch points, not full partial-order reduction),
// checking user invariants on every run. A failing run prints its seed and
// decision trace, and the seed is pinned in testdata/regression_seeds.json
// so every found bug becomes a permanent, replayable regression test.
//
// The simulation boundary: tasks are atomic. The scheduler interleaves at
// dispatch points (posts, waits, awaits, timers, explicit Yield calls), not
// at instruction granularity — the same granularity event-driven stateless
// model checking uses, because handlers on an EDT really are atomic with
// respect to each other. Code that blocks on raw channels, spawns bare
// goroutines, or reads the wall clock escapes the simulation; the
// executor.SetBlockHook seam routes the runtime's own waits through the
// scheduler, and time exists only as the virtual clock behind PostDelayed,
// PostAt and Sleep. See DESIGN.md §17 for what exploration can and cannot
// prove.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/executor"
	"repro/internal/gid"
)

// ErrNotSimGoroutine reports use of a simulated executor from outside the
// simulation goroutine — the one determinism rule user code can break.
var ErrNotSimGoroutine = errors.New("sim: simulated executors are confined to the simulation goroutine")

// DeadlockError is raised when the simulated program can make no further
// progress while some goroutine still waits: no runnable task, no pending
// timer, completion unfinished. Under a real runtime this schedule would
// hang forever; under simulation it fails fast with the decision trace
// that led there.
type DeadlockError struct {
	// Waiting describes what the simulation was blocked on.
	Waiting string
	// Trace is the decision log up to the deadlock.
	Trace string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock: no runnable task or pending timer while %s\ndecision trace:\n%s", e.Waiting, e.Trace)
}

// StepLimitError is raised when a run exceeds its scheduler-step budget —
// almost always a livelock in the scenario (work that respawns itself
// forever), surfaced deterministically instead of as a test timeout.
type StepLimitError struct {
	Steps int
}

func (e *StepLimitError) Error() string {
	return fmt.Sprintf("sim: scheduler step limit exceeded (%d steps): livelocked scenario?", e.Steps)
}

// schedPolicy is the perturbation flavor of one run, drawn from the seed at
// construction so a seed alone reproduces the whole schedule.
type schedPolicy int

const (
	// policyUniform picks uniformly among runnable alternatives: the
	// random-walk baseline.
	policyUniform schedPolicy = iota
	// policyLIFO biases toward the newest runnable task, digging out
	// schedules where late work overtakes early work (the shape concurrent
	// workers produce when an early task is slow).
	policyLIFO
	// policyDelay injects delays: some tasks draw a skip budget at post
	// time and are withheld from the runnable set while any alternative
	// exists — the delay-injection face of DPOR-lite perturbation.
	policyDelay
)

func (p schedPolicy) String() string {
	switch p {
	case policyLIFO:
		return "lifo"
	case policyDelay:
		return "delay"
	default:
		return "uniform"
	}
}

// stask is one queued unit of simulated work. It runs through the same
// executor.Bracket as the real engines, so completions and span trees from
// simulated runs have the same shape and ordering as real ones.
type stask struct {
	executor.Bracket
	comp  *executor.Completion
	seq   uint64
	exec  *Exec
	delay int // policyDelay skip budget; >0 withholds it from the runnable set
}

// stimer is one pending virtual-clock timer.
type stimer struct {
	seq    uint64
	when   time.Duration // virtual deadline
	target string        // decision-log label
	fn     func()
	fired  bool
}

// runMu serializes simulations process-wide: the block hook and goroutine
// registry are shared seams, and exploration runs are sequential anyway.
var runMu sync.Mutex

// Sim is one deterministic simulation run. Create with New, populate with
// NewLoop/NewPool (and a Runtime if the scenario drives core directives),
// then Execute the scenario body. A Sim is single-use: one Execute per Sim.
type Sim struct {
	seed     int64
	rng      *rand.Rand
	policy   schedPolicy
	base     time.Time
	virt     time.Duration
	maxSteps int

	reg    gid.Registry
	goid   gid.ID
	active bool
	used   bool

	execs   []*Exec
	root    *Exec
	running *Exec
	timers  []*stimer
	seq     uint64

	steps    int
	log      DecisionLog
	fatalErr error // sticky deadlock/step-limit, survives capture by task recovery
}

// New returns a simulation whose every scheduling decision is a function of
// seed. The perturbation policy is drawn from the seed too, so recording a
// seed records the full schedule.
func New(seed int64) *Sim {
	s := &Sim{
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		base:     time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC),
		maxSteps: 1 << 20,
	}
	// Half the seeds random-walk; the other half split between the two
	// biased policies, which reach schedules the uniform walk is
	// exponentially unlikely to find.
	switch s.rng.Intn(4) {
	case 0, 1:
		s.policy = policyUniform
	case 2:
		s.policy = policyLIFO
	default:
		s.policy = policyDelay
	}
	s.root = s.newExec("main", true)
	return s
}

// Seed returns the run's seed.
func (s *Sim) Seed() int64 { return s.seed }

// Policy names the perturbation policy this seed selected (for logs).
func (s *Sim) Policy() string { return s.policy.String() }

// SetMaxSteps overrides the scheduler-step budget (livelock guard).
func (s *Sim) SetMaxSteps(n int) {
	if n > 0 {
		s.maxSteps = n
	}
}

// Steps returns how many scheduler steps have run.
func (s *Sim) Steps() int { return s.steps }

// Log returns the decision log (live; do not mutate).
func (s *Sim) Log() *DecisionLog { return &s.log }

// Trace renders the decision trace recorded so far. Two runs with the same
// seed over the same scenario produce byte-identical traces.
func (s *Sim) Trace() string { return s.log.String() }

// Now returns the virtual clock reading.
func (s *Sim) Now() time.Time { return s.base.Add(s.virt) }

func (s *Sim) checkGoroutine() {
	if !s.active || gid.Current() != s.goid {
		panic(ErrNotSimGoroutine)
	}
}

func (s *Sim) onSim() bool {
	return s.active && gid.Current() == s.goid
}

func (s *Sim) nextSeq() uint64 {
	s.seq++
	return s.seq
}

// addTimer schedules fn at virtual now+d (clamped to now).
func (s *Sim) addTimer(d time.Duration, target string, fn func()) {
	if d < 0 {
		d = 0
	}
	s.timers = append(s.timers, &stimer{seq: s.nextSeq(), when: s.virt + d, target: target, fn: fn})
}

// choice is one runnable alternative at a scheduler step.
type choice struct {
	exec  *Exec
	qidx  int
	timer *stimer
	seq   uint64
}

// collect builds the current runnable set: each FIFO executor contributes
// its head task (dispatch order is part of its semantics), each pool
// executor contributes every queued task (a pool's workers may pop in any
// order), and every timer due at the current virtual time contributes a
// firing.
func (s *Sim) collect() []choice {
	var cs []choice
	for _, e := range s.execs {
		if len(e.q) == 0 {
			continue
		}
		if e.fifo {
			cs = append(cs, choice{exec: e, qidx: 0, seq: e.q[0].seq})
			continue
		}
		for i, t := range e.q {
			cs = append(cs, choice{exec: e, qidx: i, seq: t.seq})
		}
	}
	// Compact fired timers opportunistically while scanning for due ones.
	live := s.timers[:0]
	for _, t := range s.timers {
		if t.fired {
			continue
		}
		live = append(live, t)
		if t.when <= s.virt {
			cs = append(cs, choice{timer: t, seq: t.seq})
		}
	}
	s.timers = live
	if s.policy == policyDelay && len(cs) > 1 {
		eligible := make([]choice, 0, len(cs))
		for _, c := range cs {
			if c.exec != nil && c.exec.q[c.qidx].delay > 0 {
				c.exec.q[c.qidx].delay--
				continue
			}
			eligible = append(eligible, c)
		}
		if len(eligible) > 0 {
			cs = eligible
		}
	}
	return cs
}

// advanceClock moves virtual time to the earliest pending timer deadline,
// reporting whether there was one.
func (s *Sim) advanceClock() bool {
	var earliest time.Duration
	found := false
	for _, t := range s.timers {
		if t.fired {
			continue
		}
		if !found || t.when < earliest {
			earliest, found = t.when, true
		}
	}
	if !found {
		return false
	}
	if earliest > s.virt {
		s.virt = earliest
	}
	return true
}

// pick chooses among the alternatives per the run's policy.
func (s *Sim) pick(cs []choice) int {
	if len(cs) == 1 {
		return 0
	}
	if s.policy == policyLIFO && s.rng.Float64() < 0.75 {
		best := 0
		for i := 1; i < len(cs); i++ {
			if cs[i].seq > cs[best].seq {
				best = i
			}
		}
		return best
	}
	return s.rng.Intn(len(cs))
}

// step runs one scheduler step: pick a runnable alternative (advancing the
// virtual clock to the next timer if nothing is runnable now) and execute
// it. Returns false when the simulation is quiescent — no runnable task and
// no pending timer.
func (s *Sim) step() bool {
	cs := s.collect()
	if len(cs) == 0 {
		if !s.advanceClock() {
			return false
		}
		cs = s.collect()
		if len(cs) == 0 {
			return false
		}
	}
	if s.steps >= s.maxSteps {
		err := &StepLimitError{Steps: s.steps}
		if s.fatalErr == nil {
			s.fatalErr = err
		}
		panic(err)
	}
	c := cs[s.pick(cs)]
	if c.timer != nil {
		s.log.Append(Decision{Step: s.steps, Kind: "timer", Target: c.timer.target, Seq: c.timer.seq, Alts: len(cs), Virt: s.virt})
		s.steps++
		c.timer.fired = true // consumed; collect will drop it
		c.timer.fn()
		return true
	}
	t := c.exec.take(c.qidx)
	s.log.Append(Decision{Step: s.steps, Kind: "run", Target: c.exec.name, Seq: t.seq, Alts: len(cs), Virt: s.virt})
	s.steps++
	s.run(t)
	return true
}

// run executes t on the simulation goroutine under its executor's
// identity: the goroutine registry answers "member of t.exec" for the
// task's duration, so core's thread-context awareness (Algorithm 1 line 6)
// and the await help-first path behave exactly as on the real runtime. It
// reports whether the body ran (false: t was cancelled while queued).
func (s *Sim) run(t *stask) bool {
	prev := s.running
	s.running = t.exec
	s.reg.Register(t.exec)
	defer func() {
		s.running = prev
		if prev != nil {
			s.reg.Register(prev)
		}
	}()
	ran := t.Run(t.comp, t.exec.name, nil, nil)
	if ran {
		t.exec.dispatched++
	}
	return ran
}

// pump drives the scheduler until ready() reports true, failing the run
// with a DeadlockError if the simulation goes quiescent first. It is the
// simulated replacement for parking: every blocking wait in the runtime
// funnels here through the executor block hook.
func (s *Sim) pump(waiting string, ready func() bool) {
	for !ready() {
		if !s.step() {
			err := &DeadlockError{Waiting: waiting, Trace: s.Trace()}
			if s.fatalErr == nil {
				s.fatalErr = err
			}
			panic(err)
		}
	}
}

// blockHook is installed as executor.SetBlockHook for the duration of
// Execute: waits on the simulation goroutine pump the scheduler; waits on
// any other goroutine fall through to real parking.
func (s *Sim) blockHook(ready func() bool) bool {
	if !s.onSim() {
		return false
	}
	s.pump("a completion inside a simulated task", ready)
	return true
}

// Yield is a modeled preemption point: the scheduler may run a
// seed-determined number (0–3) of other runnable tasks before the caller
// continues. Scenarios place it where a real thread could be preempted
// between a read and a write, giving task-granularity exploration a window
// into intra-task races.
func (s *Sim) Yield() {
	s.checkGoroutine()
	k := s.rng.Intn(4)
	for i := 0; i < k; i++ {
		if len(s.collect()) == 0 {
			return // nothing runnable now; Yield never advances the clock
		}
		s.step()
	}
}

// Sleep advances through d of virtual time, running whatever the scheduler
// picks in the meantime (tasks are instantaneous; time moves only when the
// runnable set is empty). It replaces wall-clock sleeps in scenarios.
func (s *Sim) Sleep(d time.Duration) {
	s.checkGoroutine()
	fired := false
	s.addTimer(d, "sleep", func() { fired = true })
	s.pump("a virtual-clock sleep", func() bool { return fired })
}

// Quiesce drives the scheduler until no task is runnable and no timer is
// pending. Scenario bodies call it before their final assertions so every
// posted block has run.
func (s *Sim) Quiesce() {
	s.checkGoroutine()
	for s.step() {
	}
}

// Execute runs body as the simulation's root context ("main"), then drains
// the scheduler to quiescence. It installs the executor block hook and the
// goroutine-registry identity for the duration, so core/qos code called
// from body runs unmodified under the simulated scheduler. The returned
// error is body's error, a captured scenario panic, or the sticky
// deadlock/step-limit failure — whichever the schedule produced.
func (s *Sim) Execute(body func(*Sim) error) (err error) {
	runMu.Lock()
	defer runMu.Unlock()
	if s.used {
		return errors.New("sim: Sim already executed; create a new Sim per run")
	}
	s.used = true
	s.goid = gid.Current()
	s.active = true
	defer func() { s.active = false }()
	restore := executor.SetBlockHook(s.blockHook)
	defer restore()
	s.reg.Register(s.root)
	defer s.reg.Deregister()
	s.running = s.root

	func() {
		defer func() {
			if v := recover(); v != nil {
				if s.fatalErr != nil {
					err = s.fatalErr
					return
				}
				err = fmt.Errorf("sim: scenario panicked: %v", v)
			}
		}()
		err = body(s)
		if err == nil {
			s.Quiesce()
		}
	}()
	if s.fatalErr != nil {
		err = s.fatalErr
	}
	return err
}
