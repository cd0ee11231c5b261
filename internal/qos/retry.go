package qos

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// Retryable reports whether err is a transient admission failure worth
// retrying with backoff: a shed or an open breaker. Permanent errors
// (unknown target, nil block, task panics) and context expiry are not
// retryable.
func Retryable(err error) bool {
	return errors.Is(err, ErrShed) || errors.Is(err, ErrBreakerOpen)
}

// Retry runs an operation with capped exponential backoff and full
// jitter. The zero value tries once; Retry{Attempts: 4, Base:
// time.Millisecond, Cap: 100 * time.Millisecond, Jitter: true} is a sane
// starting point.
type Retry struct {
	// Attempts is the total number of tries, including the first
	// (clamped to ≥1).
	Attempts int
	// Base is the backoff before the first retry; each subsequent
	// backoff doubles.
	Base time.Duration
	// Cap bounds a single backoff (0 = uncapped).
	Cap time.Duration
	// Jitter selects full jitter: each sleep is drawn uniformly from
	// [0, backoff] so synchronized clients desynchronize. When false
	// the sleep is exactly the backoff.
	Jitter bool
}

// Do invokes fn until it succeeds, fails permanently, or attempts are
// exhausted, sleeping the backoff schedule between tries. It returns nil
// on success, ctx's error if the context expires while backing off, and
// otherwise fn's last error. Only Retryable errors are retried.
func (r Retry) Do(ctx context.Context, fn func() error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := r.Attempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := r.Base
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			sleep := backoff
			if r.Cap > 0 && sleep > r.Cap {
				sleep = r.Cap
			}
			if r.Jitter {
				sleep = time.Duration(rand.Int63n(int64(sleep) + 1))
			}
			timer := time.NewTimer(sleep)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			}
			backoff *= 2
		}
		if err = fn(); err == nil || !Retryable(err) {
			return err
		}
	}
	return err
}
