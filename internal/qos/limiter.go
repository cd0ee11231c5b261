package qos

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Limiter is per-target admission control: a semaphore of capacity
// execution slots fronted by a bounded wait queue. Acquire admits, sheds,
// or waits according to the limiter's Policy; Release frees a slot.
//
// The intended deployment is one Limiter per worker virtual target with
// capacity equal to the target's thread count, so that "waiting for a
// slot" is exactly "the target's queue would grow" — the condition the
// seed's unbounded queues hide.
type Limiter struct {
	name    string
	policy  Policy
	maxWait int // wait-queue bound; <0 = unbounded

	slots   chan struct{}
	waiting atomic.Int64

	admitted atomic.Int64
	shed     atomic.Int64
	canceled atomic.Int64
}

// Stats is a snapshot of a limiter's admission counters.
type Stats struct {
	Admitted int64 // invocations that acquired an execution slot
	Shed     int64 // invocations rejected by admission control
	Canceled int64 // invocations abandoned by their own context while waiting
}

// NewLimiter builds a limiter named after its target with capacity
// concurrent execution slots and at most maxWait invocations waiting for
// one (maxWait 0 forbids waiting entirely; maxWait < 0 leaves the wait
// queue unbounded, giving the policy alone control). capacity < 1 is
// clamped to 1.
func NewLimiter(name string, capacity, maxWait int, policy Policy) *Limiter {
	if capacity < 1 {
		capacity = 1
	}
	l := &Limiter{
		name:    name,
		policy:  policy,
		maxWait: maxWait,
		slots:   make(chan struct{}, capacity),
	}
	for i := 0; i < capacity; i++ {
		l.slots <- struct{}{}
	}
	return l
}

// Name returns the guarded target's name.
func (l *Limiter) Name() string { return l.name }

// Stats returns a snapshot of the limiter's counters.
func (l *Limiter) Stats() Stats {
	return Stats{Admitted: l.admitted.Load(), Shed: l.shed.Load(), Canceled: l.canceled.Load()}
}

// Waiting returns the number of invocations currently queued for a slot.
func (l *Limiter) Waiting() int { return int(l.waiting.Load()) }

// Acquire obtains an execution slot, applying the overload policy when
// none is free. It returns nil on admission (pair with Release), ErrShed
// when the invocation is shed, or ctx's error when the caller's own
// context expires first. A nil Limiter admits everything.
func (l *Limiter) Acquire(ctx context.Context) error {
	if l == nil {
		return nil
	}
	// Fast path: free slot, zero sojourn.
	select {
	case <-l.slots:
		l.admitted.Add(1)
		return nil
	default:
	}
	if l.policy.kind == policyReject {
		l.shedOne()
		return ErrShed
	}
	// Join the bounded wait queue.
	if n := l.waiting.Add(1); l.maxWait >= 0 && n > int64(l.maxWait) {
		l.waiting.Add(-1)
		l.shedOne()
		return ErrShed
	}
	defer l.waiting.Add(-1)

	timer := time.NewTimer(l.policy.deadline)
	defer timer.Stop()
	select {
	case <-l.slots:
		l.admitted.Add(1)
		return nil
	case <-timer.C:
		l.shedOne()
		return ErrShed
	case <-ctx.Done():
		l.canceled.Add(1)
		return ctx.Err()
	}
}

// TryAcquire is Acquire restricted to the fast path: it takes a free slot
// or reports false without waiting, regardless of policy. For callers that
// must never block (e.g. a network read loop).
func (l *Limiter) TryAcquire() bool {
	if l == nil {
		return true
	}
	select {
	case <-l.slots:
		l.admitted.Add(1)
		return true
	default:
		l.shedOne()
		return false
	}
}

// Release frees the slot obtained by a successful Acquire/TryAcquire.
func (l *Limiter) Release() {
	if l == nil {
		return
	}
	select {
	case l.slots <- struct{}{}:
	default:
		// More Releases than Acquires is a caller bug; dropping the
		// surplus keeps the semaphore consistent instead of deadlocking.
	}
}

func (l *Limiter) shedOne() {
	l.shed.Add(1)
	trace.Emit(trace.OpShed, l.name)
}
