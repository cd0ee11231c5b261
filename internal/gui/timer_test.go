package gui

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil/poll"
)

func TestTimerRepeats(t *testing.T) {
	tk := newToolkit(t)
	var n atomic.Int64
	var onEDT atomic.Bool
	onEDT.Store(true)
	tm := tk.NewTimer(5*time.Millisecond, func() {
		if !tk.IsDispatchThread() {
			onEDT.Store(false)
		}
		n.Add(1)
	})
	tm.Start()
	defer tm.Stop()
	deadline := time.After(2 * time.Second)
	for n.Load() < 3 {
		select {
		case <-deadline:
			t.Fatalf("timer fired only %d times", n.Load())
		case <-time.After(time.Millisecond):
		}
	}
	if !onEDT.Load() {
		t.Fatal("action ran off the EDT")
	}
	if !tm.IsRunning() {
		t.Fatal("IsRunning = false while running")
	}
	tm.Stop()
	if tm.IsRunning() {
		t.Fatal("IsRunning = true after Stop")
	}
}

func TestTimerOneShot(t *testing.T) {
	tk := newToolkit(t)
	var n atomic.Int64
	tm := tk.NewTimer(5*time.Millisecond, func() { n.Add(1) })
	tm.SetRepeats(false)
	tm.Start()
	poll.Until(t, "the one-shot to fire and stop", func() bool { return n.Load() > 0 && !tm.IsRunning() })
	if got := n.Load(); got != 1 {
		t.Fatalf("one-shot fired %d times", got)
	}
	if tm.IsRunning() {
		t.Fatal("one-shot still running after firing")
	}
}

func TestTimerCoalescing(t *testing.T) {
	tk := newToolkit(t)
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	// Block the EDT so ticks pile up against one queued fire.
	tk.InvokeLater(func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	})
	<-started
	tm := tk.NewTimer(2*time.Millisecond, func() {})
	tm.Start()
	poll.Until(t, "ticks to coalesce while the EDT is blocked", func() bool { return tm.Coalesced() > 0 })
	tm.Stop()
	close(release)
	// The one fire that was queued behind the block runs before this does.
	if err := tk.InvokeAndWait(func() {}); err != nil {
		t.Fatal(err)
	}
	if tm.Fired() > 3 {
		t.Fatalf("fired %d times despite a blocked EDT (coalescing broken)", tm.Fired())
	}
}

func TestTimerStartIdempotentAndStopIdempotent(t *testing.T) {
	tk := newToolkit(t)
	tm := tk.NewTimer(time.Millisecond, func() {})
	tm.Start()
	tm.Start() // no-op
	tm.Stop()
	tm.Stop() // no-op
}

func TestTimerDelayClamped(t *testing.T) {
	tk := newToolkit(t)
	tm := tk.NewTimer(0, nil)
	if tm.Delay() <= 0 {
		t.Fatal("delay not clamped")
	}
	tm.SetRepeats(false)
	tm.Start()
	poll.Until(t, "the nil action to be dispatched without a panic", func() bool { return tm.Fired() == 1 })
}
