package qos

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
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
	name     string
	policy   Policy
	capacity int
	maxWait  int // wait-queue bound; <0 = unbounded

	slots   chan struct{}
	waiting atomic.Int64

	mu         sync.Mutex // CoDel controller state
	firstAbove time.Time  // when sojourn first exceeded target (zero = not above)

	stats *metrics.QoSStats
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
		name:     name,
		policy:   policy,
		capacity: capacity,
		maxWait:  maxWait,
		slots:    make(chan struct{}, capacity),
		stats:    metrics.NewQoSStats(),
	}
	for i := 0; i < capacity; i++ {
		l.slots <- struct{}{}
	}
	return l
}

// Name returns the guarded target's name.
func (l *Limiter) Name() string { return l.name }

// Capacity returns the number of execution slots.
func (l *Limiter) Capacity() int { return l.capacity }

// Policy returns the overload policy.
func (l *Limiter) Policy() Policy { return l.policy }

// Stats returns the limiter's live measurements (shared, not a snapshot).
func (l *Limiter) Stats() *metrics.QoSStats { return l.stats }

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
		l.stats.Admitted.Inc()
		l.stats.Sojourn.Observe(0)
		return nil
	default:
	}
	if l.policy.kind == policyReject {
		l.shed()
		return ErrShed
	}
	// Join the bounded wait queue.
	if n := l.waiting.Add(1); l.maxWait >= 0 && n > int64(l.maxWait) {
		l.waiting.Add(-1)
		l.shed()
		return ErrShed
	}
	defer l.waiting.Add(-1)

	var queueDeadline <-chan time.Time
	if l.policy.kind == policyTimeout {
		timer := time.NewTimer(l.policy.deadline)
		defer timer.Stop()
		queueDeadline = timer.C
	}
	start := time.Now()
	for {
		select {
		case <-l.slots:
			sojourn := time.Since(start)
			l.stats.Sojourn.Observe(sojourn)
			if l.policy.kind == policyCoDel && l.codelDrop(sojourn) {
				// Persistent standing queue: shed this invocation and
				// pass the slot to the next waiter so the queue drains.
				l.Release()
				l.shed()
				return ErrShed
			}
			l.stats.Admitted.Inc()
			return nil
		case <-queueDeadline:
			l.shed()
			return ErrShed
		case <-ctx.Done():
			l.stats.Canceled.Inc()
			return ctx.Err()
		}
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
		l.stats.Admitted.Inc()
		l.stats.Sojourn.Observe(0)
		return true
	default:
		l.shed()
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

func (l *Limiter) shed() {
	l.stats.Shed.Inc()
	trace.Emit(trace.OpShed, l.name)
}

// codelDrop implements the CoDel control law on dequeue: shed once sojourn
// has been continuously above target for at least interval.
func (l *Limiter) codelDrop(sojourn time.Duration) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	if sojourn < l.policy.target {
		l.firstAbove = time.Time{}
		return false
	}
	if l.firstAbove.IsZero() {
		l.firstAbove = now
		return false
	}
	return now.Sub(l.firstAbove) >= l.policy.interval
}
