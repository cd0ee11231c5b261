package qos

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
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
	if got := l.Stats().Admitted.Value(); got != 2 {
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
	if got := l.Stats().Shed.Value(); got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}
	if buf.CountOp(trace.OpShed) != 1 {
		t.Fatalf("trace OpShed count = %d, want 1", buf.CountOp(trace.OpShed))
	}
}

func TestBoundedWaitQueueSheds(t *testing.T) {
	// Capacity 1, one waiter allowed: the third concurrent Acquire
	// must shed instead of joining the queue.
	l := NewLimiter("t", 1, 1, Block())
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

func TestBlockPolicyWaitsForSlot(t *testing.T) {
	l := NewLimiter("t", 1, -1, Block())
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- l.Acquire(context.Background()) }()
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-got:
		t.Fatalf("Acquire returned %v before Release", err)
	default:
	}
	l.Release()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if s := l.Stats().Sojourn; s.Count() != 2 || s.Max() <= 0 {
		t.Fatalf("sojourn histogram: count=%d max=%v, want 2 samples with positive max", s.Count(), s.Max())
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
	l := NewLimiter("t", 1, -1, Block())
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := l.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if got := l.Stats().Canceled.Value(); got != 1 {
		t.Fatalf("Canceled = %d, want 1", got)
	}
	if got := l.Stats().Shed.Value(); got != 0 {
		t.Fatalf("Shed = %d, want 0 (context expiry is not a shed)", got)
	}
}

func TestCoDelShedsPersistentStandingQueue(t *testing.T) {
	// Eight contenders share one slot, each holding it for twice the
	// sojourn target, so waiters' queue delay sits above target
	// continuously. Once the first full interval elapses, dequeues
	// start shedding to drain the standing queue.
	target, interval := time.Millisecond, 20*time.Millisecond
	l := NewLimiter("t", 1, -1, CoDel(target, interval))

	var shed, admitted atomic.Int64
	var wg sync.WaitGroup
	stop := time.Now().Add(500 * time.Millisecond)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				err := l.Acquire(context.Background())
				switch {
				case errors.Is(err, ErrShed):
					shed.Add(1)
				case err == nil:
					// Hold briefly so the queue stays standing, then
					// hand the slot back.
					time.Sleep(2 * target)
					l.Release()
					admitted.Add(1)
				default:
					t.Errorf("unexpected Acquire error: %v", err)
					return
				}
				if shed.Load() > 0 {
					return
				}
			}
		}()
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatalf("CoDel never shed under a persistent standing queue (admitted=%d)", admitted.Load())
	}
}

func TestCoDelPassesShortBursts(t *testing.T) {
	// A single waiter whose sojourn exceeds target only briefly (well
	// under the interval) must be admitted, not shed.
	l := NewLimiter("t", 1, -1, CoDel(time.Millisecond, time.Second))
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- l.Acquire(context.Background()) }()
	time.Sleep(5 * time.Millisecond) // sojourn > target, < interval
	l.Release()
	if err := <-got; err != nil {
		t.Fatalf("burst waiter err = %v, want admission", err)
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
	if st.Admitted.Value()+st.Shed.Value() != 32*50 {
		t.Fatalf("admitted(%d)+shed(%d) != %d", st.Admitted.Value(), st.Shed.Value(), 32*50)
	}
}
