package qos

import (
	"errors"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	b := NewBreaker("t", 3, time.Hour)
	buf := trace.NewBuffer(16)
	t.Cleanup(trace.Use(buf))
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("Allow before threshold: %v", err)
		}
		b.Failure()
	}
	if b.State() != Closed {
		t.Fatalf("state = %v after 2 failures, want closed", b.State())
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state = %v after 3 failures, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow while open = %v, want ErrBreakerOpen", err)
	}
	if b.Rejections() != 1 || b.Opens() != 1 {
		t.Fatalf("Rejections=%d Opens=%d, want 1/1", b.Rejections(), b.Opens())
	}
	if buf.CountOp(trace.OpBreakerOpen) != 1 {
		t.Fatalf("OpBreakerOpen count = %d, want 1", buf.CountOp(trace.OpBreakerOpen))
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := NewBreaker("t", 2, time.Hour)
	b.Failure()
	b.Success()
	b.Failure()
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed (streak was broken)", b.State())
	}
}

// cooledDown moves the open breaker's opening back by one cooldown, so the
// next Allow probes without the test waiting the cooldown out.
func cooledDown(b *Breaker) {
	b.mu.Lock()
	b.openedAt = b.openedAt.Add(-b.cooldown)
	b.mu.Unlock()
}

func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	b := NewBreaker("t", 1, time.Hour)
	buf := trace.NewBuffer(16)
	t.Cleanup(trace.Use(buf))
	b.Failure() // open
	if b.State() != Open {
		t.Fatalf("state = %v within the cooldown, want open", b.State())
	}
	cooledDown(b)
	if b.State() != HalfOpen {
		t.Fatalf("state = %v after cooldown, want half-open", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("probe Allow: %v", err)
	}
	// Concurrent invocation during the probe is rejected.
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second Allow during probe = %v, want ErrBreakerOpen", err)
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state = %v after probe success, want closed", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow after close: %v", err)
	}
	if buf.CountOp(trace.OpBreakerClose) != 1 {
		t.Fatalf("OpBreakerClose count = %d, want 1", buf.CountOp(trace.OpBreakerClose))
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	b := NewBreaker("t", 1, time.Hour)
	b.Failure() // open
	cooledDown(b)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe Allow: %v", err)
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state = %v after probe failure, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow after reopen = %v, want ErrBreakerOpen", err)
	}
	if b.Opens() != 2 {
		t.Fatalf("Opens = %d, want 2", b.Opens())
	}
}

func TestNilBreakerAllowsEverything(t *testing.T) {
	var b *Breaker
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Success()
	b.Failure()
}
