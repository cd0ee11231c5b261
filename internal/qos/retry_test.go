package qos

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestRetrySucceedsAfterTransientSheds(t *testing.T) {
	r := Retry{Attempts: 5, Base: time.Millisecond}
	calls := 0
	err := r.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return ErrShed
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want nil/3", err, calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	r := Retry{Attempts: 3, Base: time.Millisecond}
	calls := 0
	err := r.Do(context.Background(), func() error { calls++; return ErrBreakerOpen })
	if !errors.Is(err, ErrBreakerOpen) || calls != 3 {
		t.Fatalf("err=%v calls=%d, want ErrBreakerOpen/3", err, calls)
	}
}

func TestRetryStopsOnPermanentError(t *testing.T) {
	permanent := errors.New("permanent")
	r := Retry{Attempts: 5, Base: time.Millisecond}
	calls := 0
	err := r.Do(context.Background(), func() error { calls++; return permanent })
	if !errors.Is(err, permanent) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want permanent/1", err, calls)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	r := Retry{Attempts: 100, Base: 50 * time.Millisecond}
	err := r.Do(ctx, func() error { return ErrShed })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestRetryBackoffGrows(t *testing.T) {
	// Without jitter the sleeps are exactly Base, 2*Base, ... — three
	// retries at 10ms base must take at least 10+20+40 = 70ms.
	r := Retry{Attempts: 4, Base: 10 * time.Millisecond}
	start := time.Now()
	_ = r.Do(context.Background(), func() error { return ErrShed })
	if elapsed := time.Since(start); elapsed < 70*time.Millisecond {
		t.Fatalf("elapsed = %v, want ≥ 70ms of backoff", elapsed)
	}
}

func TestRetryCapBoundsBackoff(t *testing.T) {
	r := Retry{Attempts: 4, Base: 30 * time.Millisecond, Cap: 5 * time.Millisecond}
	start := time.Now()
	_ = r.Do(context.Background(), func() error { return ErrShed })
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("elapsed = %v, want capped backoff well under 200ms", elapsed)
	}
}

func TestRetryableClassification(t *testing.T) {
	for _, err := range []error{ErrShed, ErrBreakerOpen} {
		if !Retryable(err) {
			t.Errorf("Retryable(%v) = false, want true", err)
		}
	}
	for _, err := range []error{nil, context.Canceled, errors.New("other")} {
		if Retryable(err) {
			t.Errorf("Retryable(%v) = true, want false", err)
		}
	}
}
