package reactor

import (
	"sync"
	"testing"
	"time"

	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
)

// postAt arms fn at `at` from any goroutine: the timer heap is poll-confined,
// so the addTimer call itself is posted onto the poll goroutine.
func postAt(r *Reactor, at time.Time, fn func()) error {
	return r.Post(func() { r.addTimer(at, fn) })
}

// TestPostAtFiresInDeadlineOrder: timers armed out of order fire sorted by
// instant, on the poll goroutine.
func TestPostAtFiresInDeadlineOrder(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "timer")
	defer r.Stop()

	var mu sync.Mutex
	var order []int
	base := time.Now().Add(20 * time.Millisecond)
	// Arm in scrambled order: 3rd, 1st, 2nd.
	for _, i := range []int{3, 1, 2} {
		i := i
		at := base.Add(time.Duration(i) * 15 * time.Millisecond)
		if err := postAt(r, at, func() {
			if !r.Owns() {
				t.Error("timer callback off the poll goroutine")
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	poll.Until(t, "all timers fired", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 3
	})
	mu.Lock()
	defer mu.Unlock()
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
}

// TestPostAtPastDeadlineFiresPromptly: an already-expired instant runs on
// the next loop turn instead of waiting a full poll cycle.
func TestPostAtPastDeadlineFiresPromptly(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "past")
	defer r.Stop()

	fired := make(chan struct{})
	if err := postAt(r, time.Now().Add(-time.Second), func() { close(fired) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("past-deadline timer never fired")
	}
}

// TestPostAtReArmsFromCallback: a callback arming the next timer builds a
// poll-confined periodic tick with no extra goroutines.
func TestPostAtReArmsFromCallback(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "tick")
	defer r.Stop()

	done := make(chan struct{})
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		if ticks == 3 {
			close(done)
			return
		}
		r.addTimer(time.Now().Add(10*time.Millisecond), tick) // on-loop re-arm
	}
	if err := postAt(r, time.Now().Add(10*time.Millisecond), tick); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("tick chain stalled at %d", ticks)
	}
}

// TestPostAtAfterStop: arming a timer on a stopped reactor fails typed
// instead of silently never firing.
func TestPostAtAfterStop(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "stopped")
	r.Stop()
	if err := postAt(r, time.Now(), func() {}); err != ErrClosed {
		t.Fatalf("postAt after Stop = %v, want ErrClosed", err)
	}
}

// TestTimerPanicContained: a panicking timer callback is counted and
// recovered; the loop and later timers survive.
func TestTimerPanicContained(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "timerpanic")
	defer r.Stop()

	if err := postAt(r, time.Now(), func() { panic("timer boom") }); err != nil {
		t.Fatal(err)
	}
	after := make(chan struct{})
	if err := postAt(r, time.Now().Add(20*time.Millisecond), func() { close(after) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-after:
	case <-time.After(5 * time.Second):
		t.Fatal("loop died after timer panic")
	}
	if r.Stats().HandlerPanics == 0 {
		t.Fatal("timer panic not counted")
	}
}
