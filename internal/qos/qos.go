// Package qos is the overload-protection layer of the virtual-target
// runtime: admission control with a bounded queue deadline for target
// invocations.
//
// The paper's runtime (Algorithm 1) admits every target block
// unconditionally — adequate for a GUI, fatal for a server: when offered
// load exceeds a worker target's capacity, an unbounded queue converts
// overload into unbounded latency while throughput stays pinned at
// capacity. Event systems beat thread-per-request architectures under load
// precisely because the scheduler controls queue admission; this package
// supplies that control as a layer callers place in front of Invoke:
//
//	limiter := qos.NewLimiter("worker", capacity, queueLimit, qos.TimeoutAfter(100*time.Millisecond))
//	if err := limiter.Acquire(ctx); err != nil {
//	    // shed: fail fast (HTTP 503) instead of queueing
//	}
//	defer limiter.Release()
//	rt.InvokeCtx(ctx, "worker", core.Wait, block)
//
// A Limiter is a slot semaphore with a bounded wait queue and one of two
// overload policies: Reject (fail instantly when saturated) or TimeoutAfter
// (bounded queue deadline). Those are the policies a drill runs
// (`httpbench -overload` configures them through httpserver.QoSConfig).
//
// Every shed emits trace.OpShed to the active sink (trace.Emit), so /metrics
// counts it and scheduling decisions under overload are assertable in tests;
// the limiter also counts its admissions, sheds and cancellations itself
// (Limiter.Stats).
package qos

import (
	"errors"
	"time"
)

// ErrShed reports an invocation rejected by admission control: the wait
// queue was full or the queue deadline expired. Shed invocations never
// reached the target; callers should fail fast (e.g. HTTP 503).
var ErrShed = errors.New("qos: shed by admission control")

type policyKind int

const (
	policyReject policyKind = iota
	policyTimeout
)

// Policy selects how a Limiter treats an invocation that cannot be
// admitted immediately. Construct with Reject or TimeoutAfter.
type Policy struct {
	kind     policyKind
	deadline time.Duration // TimeoutAfter
}

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

// String names the policy for logs and bench labels.
func (p Policy) String() string {
	if p.kind == policyTimeout {
		return "timeout(" + p.deadline.String() + ")"
	}
	return "reject"
}
