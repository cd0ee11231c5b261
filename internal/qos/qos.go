// Package qos is the overload-protection layer of the virtual-target
// runtime: admission control, queue deadlines, and circuit breaking for
// target invocations.
//
// The paper's runtime (Algorithm 1) admits every target block
// unconditionally — adequate for a GUI, fatal for a server: when offered
// load exceeds a worker target's capacity, an unbounded queue converts
// overload into unbounded latency while throughput stays pinned at
// capacity. Event systems beat thread-per-request architectures under load
// precisely because the scheduler controls queue admission; this package
// supplies that control as a layer callers place in front of Invoke:
//
//	limiter := qos.NewLimiter("worker", capacity, queueLimit, qos.CoDel(5*time.Millisecond, 100*time.Millisecond))
//	if err := limiter.Acquire(ctx); err != nil {
//	    // shed: fail fast (HTTP 503) instead of queueing
//	}
//	defer limiter.Release()
//	rt.InvokeCtx(ctx, "worker", core.Wait, block)
//
// Two cooperating pieces:
//
//   - Limiter: a slot semaphore with a bounded wait queue and a pluggable
//     overload Policy — Block (wait indefinitely), Reject (fail instantly
//     when saturated), TimeoutAfter (bounded queue deadline), and a
//     CoDel-style controller that sheds when queue sojourn time stays
//     above a target for a full interval (controlling delay, not length).
//   - Breaker: a per-target circuit breaker that opens after N consecutive
//     failures (panics, deadline expiries), rejects instantly while open,
//     and probes with a single trial request after a cooldown.
//
// Both Limiter and Breaker emit trace events (trace.OpShed,
// trace.OpBreakerOpen, trace.OpBreakerClose) to the active sink
// (trace.Emit), so /metrics counts them and scheduling decisions under
// overload are assertable in tests, and record their measurements in a
// metrics.QoSStats.
package qos

import (
	"errors"
	"time"
)

// Errors returned by the admission layer.
var (
	// ErrShed reports an invocation rejected by admission control: the
	// wait queue was full, the queue deadline expired, or the CoDel
	// controller decided the target is persistently overloaded. Shed
	// invocations never reached the target; callers should fail fast
	// (e.g. HTTP 503) or retry with backoff.
	ErrShed = errors.New("qos: shed by admission control")
	// ErrBreakerOpen reports an invocation refused by an open circuit
	// breaker.
	ErrBreakerOpen = errors.New("qos: circuit breaker open")
)

type policyKind int

const (
	policyBlock policyKind = iota
	policyReject
	policyTimeout
	policyCoDel
)

// Policy selects how a Limiter treats an invocation that cannot be
// admitted immediately. Construct with Block, Reject, TimeoutAfter, or
// CoDel.
type Policy struct {
	kind     policyKind
	deadline time.Duration // TimeoutAfter
	target   time.Duration // CoDel: acceptable sojourn
	interval time.Duration // CoDel: how long sojourn may exceed target
}

// Block waits indefinitely for a slot (bounded only by the wait-queue
// length and the caller's context). This reproduces the seed's implicit
// policy and is the right choice for batch work.
func Block() Policy { return Policy{kind: policyBlock} }

// Reject sheds immediately whenever no slot is free: no waiting at all.
// This is the classic fail-fast admission valve for latency-critical
// services.
func Reject() Policy { return Policy{kind: policyReject} }

// TimeoutAfter waits up to d for a slot, then sheds. It bounds the queue
// sojourn of every individual invocation.
func TimeoutAfter(d time.Duration) Policy {
	if d <= 0 {
		return Reject()
	}
	return Policy{kind: policyTimeout, deadline: d}
}

// CoDel is a controlled-delay queue policy modeled on the CoDel AQM
// algorithm: admitted invocations measure their queue sojourn, and once
// sojourn has exceeded target continuously for a full interval the limiter
// starts shedding, draining the standing queue until sojourn drops back
// under target. Unlike TimeoutAfter it tolerates short bursts (sojourn
// spikes shorter than interval pass untouched) while still preventing a
// persistent standing queue. Typical values: target a small multiple of
// the per-task service time, interval ~100ms.
func CoDel(target, interval time.Duration) Policy {
	if target <= 0 {
		target = 5 * time.Millisecond
	}
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return Policy{kind: policyCoDel, target: target, interval: interval}
}

// String names the policy for logs and bench labels.
func (p Policy) String() string {
	switch p.kind {
	case policyReject:
		return "reject"
	case policyTimeout:
		return "timeout(" + p.deadline.String() + ")"
	case policyCoDel:
		return "codel(" + p.target.String() + "," + p.interval.String() + ")"
	default:
		return "block"
	}
}
