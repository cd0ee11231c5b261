package executor

import (
	"testing"

	"repro/internal/gid"
)

// TestBlockHookHandlesWait proves the simulation seam: with a hook
// installed for the calling goroutine, Completion.Wait never parks — the
// hook drives the completion to done and Wait returns its error.
func TestBlockHookHandlesWait(t *testing.T) {
	comp, complete := NewPendingCompletion()
	self := gid.Current()
	pumped := 0
	restore := SetBlockHook(func(ready func() bool) bool {
		if gid.Current() != self {
			return false
		}
		for !ready() {
			pumped++
			complete(nil) // "the scheduler ran the task"
		}
		return true
	})
	defer restore()
	if err := comp.Wait(); err != nil {
		t.Fatalf("Wait = %v", err)
	}
	if pumped != 1 {
		t.Fatalf("hook pumped %d times, want 1", pumped)
	}
}

// TestBlockHookIgnoresForeignGoroutines: a hook that declines the
// goroutine must leave the normal park path intact.
func TestBlockHookIgnoresForeignGoroutines(t *testing.T) {
	restore := SetBlockHook(func(ready func() bool) bool { return false })
	defer restore()
	comp, complete := NewPendingCompletion()
	go complete(nil)
	if err := comp.Wait(); err != nil {
		t.Fatalf("Wait = %v", err)
	}
}

// TestBlockHookRestore: SetBlockHook's restore function reinstates the
// previous hook, so nested installations unwind cleanly.
func TestBlockHookRestore(t *testing.T) {
	var outerCalls int
	outer := func(ready func() bool) bool { outerCalls++; return false }
	restoreOuter := SetBlockHook(outer)
	defer restoreOuter()
	closed := make(chan struct{})
	close(closed)
	restoreInner := SetBlockHook(nil)
	if BlockOn(closed); outerCalls != 0 {
		t.Fatal("removed hook was still consulted")
	}
	restoreInner()
	if BlockOn(closed); outerCalls != 1 {
		t.Fatalf("outer hook calls = %d after restore, want 1", outerCalls)
	}
}

// TestBlockOnFallsThroughToChannel: without a hook, BlockOn is a plain
// channel receive.
func TestBlockOnFallsThroughToChannel(t *testing.T) {
	done := make(chan struct{})
	go close(done)
	BlockOn(done) // must return, not hang
	BlockOn(done) // already closed: immediate
}
