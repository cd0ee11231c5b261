// Package omp is the traditional OpenMP fork-join substrate the paper's
// evaluation builds on: the computational kernels inside event handlers are
// parallelized with `//omp parallel` / `//omp for`, both in the
// "synchronous parallel" baseline (where the EDT is the master thread and
// participates in the work-sharing region — the responsiveness problem the
// paper spells out in the introduction) and in the "asynchronous parallel"
// configuration (where a worker runs the region).
//
// The model is SPMD: Parallel forks a team, every team member runs the body,
// and work-sharing constructs (For, Sections, Single) must be encountered by
// all members in the same order — the same constraint the OpenMP
// specification imposes.
//
// The calling goroutine becomes the team's master (thread 0) and
// participates in the region: this deliberate fidelity to OpenMP's fork-join
// model is what makes the EDT unresponsive in the synchronous-parallel
// baseline, which the evaluation measures. The other members are a hot team:
// goroutines parked between regions, woken rather than forked by Parallel.
package omp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Schedule selects the work-sharing loop schedule (the schedule clause).
type Schedule int

const (
	// Static divides iterations into contiguous chunks assigned round-robin
	// (one block per thread when chunk is 0).
	Static Schedule = iota
	// Dynamic hands out chunks first-come-first-served.
	Dynamic
	// Guided hands out exponentially shrinking chunks.
	Guided
)

// String returns the clause spelling.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// team is the shared state of a parallel region. It outlives the region: on
// the idle list, members 1..n-1 park on their wake channel until the next body.
type team struct {
	n       int
	bar     barrier
	members []Team          // members[i] is thread i's view, built once
	wake    []chan struct{} // wake[i-1] starts member i on body; closed to retire it
	running atomic.Int32    // members 1..n-1 still in body
	done    chan struct{}   // the last member to leave body sends here
	body    func(tc *Team)

	mu         sync.Mutex
	constructs map[int]any // construct ordinal -> shared state

	tasks    taskQueue
	inFlight atomic.Int64
}

// maxIdleTeams bounds the parked teams kept per team size.
const maxIdleTeams = 8

// idle holds the parked teams, a stack per size. It is not a sync.Pool: the
// collector empties a pool, and a team it drops strands its parked members.
var idle = struct {
	mu    sync.Mutex
	teams map[int][]*team
}{teams: make(map[int][]*team)}

func newTeam(n int) *team {
	t := &team{n: n, members: make([]Team, n), wake: make([]chan struct{}, n-1),
		done: make(chan struct{}, 1), constructs: make(map[int]any)}
	t.bar.n, t.bar.cond.L = n, &t.bar.mu
	for i := range t.members {
		t.members[i] = Team{t: t, id: i}
		if i > 0 {
			t.wake[i-1] = make(chan struct{}, 1)
			go t.member(i)
		}
	}
	return t
}

// member is the goroutine of thread id: it runs each body it is woken for
// and returns when the team is retired.
func (t *team) member(id int) {
	for range t.wake[id-1] {
		t.body(&t.members[id])
		if t.running.Add(-1) == 0 {
			t.done <- struct{}{}
		}
	}
}

// takeTeam returns an idle team of size n, or a new one.
func takeTeam(n int) *team {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	if s := idle.teams[n]; len(s) > 0 {
		t := s[len(s)-1]
		s[len(s)-1], idle.teams[n] = nil, s[:len(s)-1]
		return t
	}
	return newTeam(n)
}

// release ends a region: a joined team has its construct state reset and is
// parked, unless its size already has maxIdleTeams parked. A team whose
// master panicked (body still set) is retired, as is one beyond the bound.
func (t *team) release() {
	if t.body == nil {
		clear(t.constructs)
		for i := range t.members {
			t.members[i].seq = 0
		}
		t.tasks.q = nil
		idle.mu.Lock()
		if s := idle.teams[t.n]; len(s) < maxIdleTeams {
			idle.teams[t.n] = append(s, t)
			idle.mu.Unlock()
			return
		}
		idle.mu.Unlock()
	}
	t.retire()
}

// retire ends the members' goroutines once they finish any body in hand.
func (t *team) retire() {
	for _, w := range t.wake {
		close(w)
	}
}

// Team is a member's view of its parallel region: thread id, team size, and
// the work-sharing and synchronization constructs.
type Team struct {
	t   *team
	id  int
	seq int // per-member construct ordinal (SPMD lockstep)
}

// ThreadNum returns the member's id in [0, NumThreads), 0 being the master.
func (tc *Team) ThreadNum() int { return tc.id }

// NumThreads returns the team size.
func (tc *Team) NumThreads() int { return tc.t.n }

// Parallel runs body on a team of n goroutines (n <= 0 means
// runtime.GOMAXPROCS(0), the available parallelism). The caller is the master (thread 0) and participates;
// Parallel returns when every member has finished the body — the synchronous
// "join" the paper contrasts with its asynchronous executor model. The other
// members are a parked team, retired rather than reused if the master panics.
func Parallel(n int, body func(tc *Team)) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	t := takeTeam(n)
	defer t.release()
	t.body = body
	t.running.Store(int32(n - 1))
	for _, w := range t.wake {
		w <- struct{}{}
	}
	body(&t.members[0])
	if n > 1 {
		<-t.done
	}
	// Region end is a task scheduling point: no task may outlive its region.
	t.drainTasks()
	t.body = nil // joined: release may park the team
}

// Barrier synchronizes all team members. It is a task scheduling point:
// pending explicit tasks are drained before the barrier releases.
func (tc *Team) Barrier() {
	tc.t.drainTasks()
	tc.t.bar.await()
}

// construct returns the shared state for the member's next construct,
// creating it with mk on first arrival.
func (tc *Team) construct(mk func() any) any {
	tc.seq++
	k := tc.seq
	t := tc.t
	t.mu.Lock()
	st, ok := t.constructs[k]
	if !ok {
		st = mk()
		t.constructs[k] = st
	}
	t.mu.Unlock()
	return st
}

// loopState is the shared chunk dispenser for Dynamic and Guided schedules.
type loopState struct {
	next atomic.Int64
}

// For executes the iteration space [lo, hi) across the team using the given
// schedule and chunk size (chunk <= 0 selects the schedule's default), then
// joins at an implicit barrier. Every team member must call For.
func (tc *Team) For(lo, hi int, sched Schedule, chunk int, body func(i int)) {
	tc.ForNowait(lo, hi, sched, chunk, body)
	tc.Barrier()
}

// ForNowait is For with the nowait clause: no barrier at loop end.
func (tc *Team) ForNowait(lo, hi int, sched Schedule, chunk int, body func(i int)) {
	n := hi - lo
	if n <= 0 {
		tc.construct(func() any { return nil }) // keep construct ordinals aligned
		return
	}
	switch sched {
	case Static:
		tc.construct(func() any { return nil })
		if chunk <= 0 {
			// One contiguous block per thread.
			per := n / tc.t.n
			rem := n % tc.t.n
			start := lo + tc.id*per + min(tc.id, rem)
			size := per
			if tc.id < rem {
				size++
			}
			for i := start; i < start+size; i++ {
				body(i)
			}
			return
		}
		// Round-robin chunks.
		for base := lo + tc.id*chunk; base < hi; base += tc.t.n * chunk {
			end := min(base+chunk, hi)
			for i := base; i < end; i++ {
				body(i)
			}
		}
	case Dynamic:
		if chunk <= 0 {
			chunk = 1
		}
		st := tc.construct(func() any { return &loopState{} }).(*loopState)
		for {
			base := lo + int(st.next.Add(int64(chunk))) - chunk
			if base >= hi {
				return
			}
			end := min(base+chunk, hi)
			for i := base; i < end; i++ {
				body(i)
			}
		}
	case Guided:
		if chunk <= 0 {
			chunk = 1
		}
		st := tc.construct(func() any { return &loopState{} }).(*loopState)
		for {
			// Claim an exponentially shrinking chunk: remaining / (2n),
			// floored at the minimum chunk size.
			for {
				taken := st.next.Load()
				remaining := int64(n) - taken
				if remaining <= 0 {
					return
				}
				size := remaining / int64(2*tc.t.n)
				if size < int64(chunk) {
					size = int64(chunk)
				}
				if size > remaining {
					size = remaining
				}
				if st.next.CompareAndSwap(taken, taken+size) {
					base := lo + int(taken)
					end := min(base+int(size), hi)
					for i := base; i < end; i++ {
						body(i)
					}
					break
				}
			}
		}
	default:
		panic(fmt.Sprintf("omp: unknown schedule %v", sched))
	}
}

// singleState marks whether a Single construct has been claimed.
type singleState struct {
	claimed atomic.Bool
}

// Single runs fn on the first team member to arrive, then joins everyone at
// an implicit barrier (no nowait variant is needed by the kernels).
func (tc *Team) Single(fn func()) {
	st := tc.construct(func() any { return &singleState{} }).(*singleState)
	if st.claimed.CompareAndSwap(false, true) {
		fn()
	}
	tc.Barrier()
}

// Master runs fn only on thread 0, with no implied synchronization
// (the OpenMP master construct).
func (tc *Team) Master(fn func()) {
	if tc.id == 0 {
		fn()
	}
}

// sectionsState dispenses section indices.
type sectionsState struct {
	next atomic.Int64
}

// Sections distributes the given section bodies across the team (each runs
// exactly once) and joins at an implicit barrier.
func (tc *Team) Sections(fns ...func()) {
	st := tc.construct(func() any { return &sectionsState{} }).(*sectionsState)
	for {
		i := int(st.next.Add(1)) - 1
		if i >= len(fns) {
			break
		}
		fns[i]()
	}
	tc.Barrier()
}

// criticalRegistry holds the global named locks behind Critical.
var criticalRegistry sync.Map // name -> *sync.Mutex

// Critical runs fn under the process-wide lock for name — OpenMP critical
// sections with the same name exclude each other across all teams.
func Critical(name string, fn func()) {
	m, ok := criticalRegistry.Load(name)
	if !ok {
		m, _ = criticalRegistry.LoadOrStore(name, new(sync.Mutex))
	}
	mu := m.(*sync.Mutex)
	mu.Lock()
	defer mu.Unlock()
	fn()
}

// reduceState gathers per-thread partial values.
type reduceState struct {
	mu    sync.Mutex
	parts []any
	out   any
}

// Reduce combines each member's local value with op and returns the combined
// result on every member. op must be associative and commutative. Reduce
// contains two barriers; all members must call it.
func Reduce[T any](tc *Team, local T, op func(a, b T) T) T {
	st := tc.construct(func() any { return &reduceState{} }).(*reduceState)
	st.mu.Lock()
	st.parts = append(st.parts, local)
	st.mu.Unlock()
	tc.t.bar.await()
	if tc.id == 0 {
		acc := st.parts[0].(T)
		for _, p := range st.parts[1:] {
			acc = op(acc, p.(T))
		}
		st.out = acc
	}
	tc.t.bar.await()
	return st.out.(T)
}

// ParallelFor is the combined `parallel for` construct: fork a team of n,
// run [lo,hi) with a static schedule, join.
func ParallelFor(n, lo, hi int, body func(i int)) {
	Parallel(n, func(tc *Team) {
		tc.ForNowait(lo, hi, Static, 0, body)
	})
}

// ParallelForSchedule is ParallelFor with an explicit schedule clause.
func ParallelForSchedule(n, lo, hi int, sched Schedule, chunk int, body func(i int)) {
	Parallel(n, func(tc *Team) {
		tc.ForNowait(lo, hi, sched, chunk, body)
	})
}

// ParallelSections is the combined `parallel sections` construct: fork a
// team of n (n <= 0 sizes the team to the section count, capped at the
// default) and run each section exactly once.
func ParallelSections(n int, fns ...func()) {
	if n <= 0 {
		n = len(fns)
		if max := runtime.GOMAXPROCS(0); n > max {
			n = max
		}
		if n < 1 {
			n = 1
		}
	}
	Parallel(n, func(tc *Team) {
		tc.Sections(fns...)
	})
}

// ParallelReduce forks a team of n, applies body to [lo,hi) under a static
// schedule accumulating with acc/op per thread, and reduces the partials
// with op. zero is the reduction identity.
func ParallelReduce[T any](n, lo, hi int, zero T, body func(i int, acc T) T, op func(a, b T) T) T {
	var mu sync.Mutex
	result := zero
	Parallel(n, func(tc *Team) {
		local := zero
		tc.ForNowait(lo, hi, Static, 0, func(i int) {
			local = body(i, local)
		})
		mu.Lock()
		result = op(result, local)
		mu.Unlock()
	})
	return result
}

// --- explicit tasks -------------------------------------------------------

type ompTask struct{ fn func() }

type taskQueue struct {
	mu sync.Mutex
	q  []*ompTask
}

func (tq *taskQueue) push(t *ompTask) {
	tq.mu.Lock()
	tq.q = append(tq.q, t)
	tq.mu.Unlock()
}

func (tq *taskQueue) pop() *ompTask {
	tq.mu.Lock()
	defer tq.mu.Unlock()
	if len(tq.q) == 0 {
		return nil
	}
	t := tq.q[0]
	tq.q = tq.q[1:]
	return t
}

// Task defers fn as an explicit task to be executed by some team member at a
// task scheduling point (Taskwait, Barrier, region end). This reproduces the
// OpenMP `task` directive — including the paper's complaint that "the
// lifetime of a task is confined inside a parallel region".
func (tc *Team) Task(fn func()) {
	tc.t.inFlight.Add(1)
	tc.t.tasks.push(&ompTask{fn: fn})
}

// Taskwait blocks until all tasks created so far by the team have completed,
// helping to execute them (the encountering thread participates, per the
// specification).
func (tc *Team) Taskwait() {
	t := tc.t
	for {
		if task := t.tasks.pop(); task != nil {
			task.fn()
			t.inFlight.Add(-1)
			continue
		}
		if t.inFlight.Load() == 0 {
			return
		}
		runtime.Gosched()
	}
}

func (t *team) drainTasks() {
	for {
		task := t.tasks.pop()
		if task == nil {
			return
		}
		task.fn()
		t.inFlight.Add(-1)
	}
}

// --- barrier ---------------------------------------------------------------

// barrier is a reusable sense-reversing barrier for n parties.
type barrier struct {
	mu    sync.Mutex
	cond  sync.Cond
	n     int
	count int
	sense bool
}

func (b *barrier) await() {
	if b.n == 1 {
		return
	}
	b.mu.Lock()
	sense := b.sense
	b.count++
	if b.count == b.n {
		b.count = 0
		b.sense = !b.sense
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for sense == b.sense {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
