package qos

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// Closed passes invocations through (healthy target).
	Closed BreakerState = iota
	// Open rejects invocations instantly (target failing).
	Open
	// HalfOpen lets exactly one probe invocation through to test
	// whether the target has recovered.
	HalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a per-target circuit breaker. It opens after Threshold
// consecutive failures (task panics, deadline expiries — whatever the
// caller counts as failure), rejects invocations with ErrBreakerOpen while
// open, and after Cooldown admits a single half-open probe: the probe's
// success closes the breaker, its failure reopens it for another cooldown.
//
// The caller wraps each invocation as:
//
//	if err := b.Allow(); err != nil { reject }
//	err := invoke()
//	if failed(err) { b.Failure() } else { b.Success() }
type Breaker struct {
	name      string
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight

	rejects metrics.Counter
	opens   metrics.Counter
}

// NewBreaker builds a breaker for the named target that opens after
// threshold consecutive failures (clamped to ≥1) and probes after cooldown
// (≤0 defaults to one second).
func NewBreaker(name string, threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	return &Breaker{name: name, threshold: threshold, cooldown: cooldown}
}

// Name returns the guarded target's name.
func (b *Breaker) Name() string { return b.name }

// State returns the breaker's current position (Open reports HalfOpen once
// the cooldown has elapsed, since the next Allow would probe).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && time.Since(b.openedAt) >= b.cooldown {
		return HalfOpen
	}
	return b.state
}

// Rejections returns how many invocations the breaker refused.
func (b *Breaker) Rejections() int64 { return b.rejects.Value() }

// Opens returns how many times the breaker transitioned to Open.
func (b *Breaker) Opens() int64 { return b.opens.Value() }

// Allow reports whether an invocation may proceed: nil to proceed,
// ErrBreakerOpen to reject. A nil Breaker allows everything.
func (b *Breaker) Allow() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return nil
	case Open:
		if time.Since(b.openedAt) < b.cooldown {
			b.rejects.Inc()
			return ErrBreakerOpen
		}
		// Cooldown elapsed: half-open, and this caller is the probe.
		b.state = HalfOpen
		b.probing = true
		return nil
	default: // HalfOpen
		if b.probing {
			b.rejects.Inc()
			return ErrBreakerOpen
		}
		b.probing = true
		return nil
	}
}

// Success records a successful invocation: it resets the failure streak
// and closes the breaker if the half-open probe succeeded.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	if b.state == HalfOpen {
		b.state = Closed
		b.probing = false
		trace.Emit(trace.OpBreakerClose, b.name)
	}
}

// Failure records a failed invocation: it extends the failure streak,
// opening the breaker at the threshold, and reopens immediately on a
// failed half-open probe.
func (b *Breaker) Failure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		b.state = Open
		b.openedAt = time.Now()
		b.probing = false
		b.opens.Inc()
		trace.Emit(trace.OpBreakerOpen, b.name)
	case Closed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = Open
			b.openedAt = time.Now()
			b.failures = 0
			b.opens.Inc()
			trace.Emit(trace.OpBreakerOpen, b.name)
		}
	}
}
