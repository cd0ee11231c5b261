package qos

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestFastPathAdmission(t *testing.T) {
	l := NewLimiter("t", 2, 0, Reject())
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Admitted; got != 2 {
		t.Fatalf("Admitted = %d, want 2", got)
	}
	l.Release()
	l.Release()
	if !l.TryAcquire() {
		t.Fatal("TryAcquire after Release should succeed")
	}
}

func TestRejectPolicyShedsWhenSaturated(t *testing.T) {
	l := NewLimiter("t", 1, 8, Reject())
	buf := trace.NewBuffer(16)
	t.Cleanup(trace.Use(buf))
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if got := l.Stats().Shed; got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}
	if buf.CountOp(trace.OpShed) != 1 {
		t.Fatalf("trace OpShed count = %d, want 1", buf.CountOp(trace.OpShed))
	}
}

func TestBoundedWaitQueueSheds(t *testing.T) {
	// Capacity 1, one waiter allowed: the third concurrent Acquire
	// must shed instead of joining the queue.
	l := NewLimiter("t", 1, 1, TimeoutAfter(time.Hour))
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	waiterIn := make(chan error, 1)
	go func() { waiterIn <- l.Acquire(context.Background()) }()
	// Let the waiter enqueue.
	deadline := time.Now().Add(2 * time.Second)
	for l.Waiting() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := l.Acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("overflow Acquire err = %v, want ErrShed", err)
	}
	l.Release()
	if err := <-waiterIn; err != nil {
		t.Fatalf("queued waiter err = %v, want admission", err)
	}
}

func TestTimeoutAfterShedsOnQueueDeadline(t *testing.T) {
	l := NewLimiter("t", 1, -1, TimeoutAfter(20*time.Millisecond))
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := l.Acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if waited := time.Since(start); waited < 15*time.Millisecond {
		t.Fatalf("shed after %v, want ≥ queue deadline", waited)
	}
}

func TestAcquireHonorsCallerContext(t *testing.T) {
	l := NewLimiter("t", 1, -1, TimeoutAfter(time.Hour))
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := l.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if got := l.Stats().Canceled; got != 1 {
		t.Fatalf("Canceled = %d, want 1", got)
	}
	if got := l.Stats().Shed; got != 0 {
		t.Fatalf("Shed = %d, want 0 (context expiry is not a shed)", got)
	}
}

func TestNilLimiterAdmitsEverything(t *testing.T) {
	var l *Limiter
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !l.TryAcquire() {
		t.Fatal("nil TryAcquire should admit")
	}
	l.Release()
}

func TestConcurrentAcquireReleaseStress(t *testing.T) {
	// Exercise the semaphore + counters under contention (run with -race).
	l := NewLimiter("t", 4, 64, TimeoutAfter(50*time.Millisecond))
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := l.Acquire(context.Background()); err == nil {
					l.Release()
				}
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.Admitted+st.Shed != 32*50 {
		t.Fatalf("admitted(%d)+shed(%d) != %d", st.Admitted, st.Shed, 32*50)
	}
}
