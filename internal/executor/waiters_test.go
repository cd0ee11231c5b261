package executor

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
	"repro/internal/testutil/raceflag"
)

// registered counts the nodes on c's stack. Only safe while nothing can
// complete c: the nodes of a pending completion do not move.
func registered(c *Completion) int {
	n := 0
	for w := c.waiters.Load(); w != nil; w = w.next {
		n++
	}
	return n
}

// drainFreeList empties the waiter free list and returns what it held.
func drainFreeList() []*Waiter {
	var ws []*Waiter
	for {
		select {
		case w := <-waiterFree:
			ws = append(ws, w)
		default:
			return ws
		}
	}
}

// TestCompleteFirstVerdictWins: the verdict a joiner may already have read
// never changes — a late complete, with an error or without, is ignored.
func TestCompleteFirstVerdictWins(t *testing.T) {
	errX := errors.New("x")
	c, complete := NewPendingCompletion()
	complete(nil)
	complete(errX)
	if err := c.Err(); err != nil {
		t.Fatalf("Err after complete(nil), complete(errX) = %v, want nil", err)
	}
	c, complete = NewPendingCompletion()
	complete(errX)
	complete(nil)
	complete(errors.New("y"))
	if err := c.Err(); err != errX {
		t.Fatalf("Err after complete(errX), complete(nil), complete(errY) = %v, want errX", err)
	}

	// Two racing non-nil completes: whichever wins, the verdict Wait returned
	// is the one Err keeps returning.
	errA, errB := errors.New("a"), errors.New("b")
	for i := 0; i < 500; i++ {
		c, complete := NewPendingCompletion()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); complete(errA) }()
		go func() { defer wg.Done(); complete(errB) }()
		got := c.Wait()
		if got != errA && got != errB {
			t.Fatalf("Wait = %v, want errA or errB", got)
		}
		wg.Wait()
		if again := c.Err(); again != got {
			t.Fatalf("verdict changed under a joiner: Wait returned %v, Err now %v", got, again)
		}
	}
}

// joinAll starts k Wait callers, k Done receivers and k barrier-style
// registrations on c and returns a function that waits for all of them and
// checks that each was released exactly once, with the verdict in hand.
func joinAll(t *testing.T, c *Completion, k int, want error) (wait func()) {
	t.Helper()
	var released atomic.Int32
	var wg sync.WaitGroup
	check := func(how string) {
		if !c.Finished() {
			t.Errorf("%s released before the completion finished", how)
		}
		if err := c.Err(); err != want {
			t.Errorf("%s saw verdict %v, want %v", how, err, want)
		}
		released.Add(1)
	}
	for i := 0; i < k; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			c.Wait()
			check("Wait")
		}()
		go func() {
			defer wg.Done()
			<-c.Done()
			check("Done")
		}()
		go func() {
			defer wg.Done()
			if w := c.Register(); w != nil {
				<-w.Token()
				if n := len(w.token); n != 0 {
					t.Errorf("registration was sent %d tokens, want 1", n+1)
				}
				w.Release(true)
			}
			check("Register")
		}()
	}
	return func() {
		t.Helper()
		wg.Wait()
		if got := int(released.Load()); got != 3*k {
			t.Errorf("%d joiners released, want %d", got, 3*k)
		}
	}
}

// TestWaiterStack races k Wait, k Done and k barrier registrations against one
// complete, in each order.
func TestWaiterStack(t *testing.T) {
	const k = 8
	errX := errors.New("x")

	t.Run("register before finish", func(t *testing.T) {
		defer leakcheck.Check(t)()
		c, complete := NewPendingCompletion()
		wait := joinAll(t, c, k, errX)
		poll.Until(t, "every joiner registered", func() bool { return registered(c) == 3*k })
		complete(errX)
		wait()
	})

	t.Run("finish before register", func(t *testing.T) {
		defer leakcheck.Check(t)()
		c, complete := NewPendingCompletion()
		complete(errX)
		if w := c.Register(); w != nil {
			t.Error("Register on a finished completion returned a registration")
		}
		if d := c.Done(); d != (<-chan struct{})(closedDone) {
			t.Error("Done of a finished completion is not the shared closed channel")
		}
		if d := NewCompletedCompletion(nil).Done(); d != (<-chan struct{})(closedDone) {
			t.Error("Done of a completed completion is not the shared closed channel")
		}
		joinAll(t, c, k, errX)()
		if c.waiters.Load() != &closedWaiters {
			t.Error("a joiner registered on a finished completion")
		}
	})

	t.Run("racing", func(t *testing.T) {
		defer leakcheck.Check(t)()
		for i := 0; i < 50; i++ {
			c, complete := NewPendingCompletion()
			wait := joinAll(t, c, k, errX)
			for y := i % 4; y > 0; y-- {
				runtime.Gosched()
			}
			complete(errX)
			wait()
		}
	})
}

// TestRecycledWaiterCarriesNoStaleToken: a node that went through one join
// comes back from the free list empty, and its next receive blocks until the
// completion it is registered on now finishes.
func TestRecycledWaiterCarriesNoStaleToken(t *testing.T) {
	defer leakcheck.Check(t)()
	held := drainFreeList() // the next node freed is the next node handed out
	defer func() {
		for _, w := range held {
			freeWaiter(w)
		}
	}()

	c1, complete1 := NewPendingCompletion()
	w1 := c1.Register()
	d1 := c1.Done()
	complete1(nil)
	<-d1
	w1.Release(false) // takes the token itself
	freed := drainFreeList()
	if len(freed) != 2 {
		t.Fatalf("%d nodes came back to the free list, want the barrier's and Done's", len(freed))
	}
	for _, w := range freed {
		if len(w.token) != 0 || w.done != nil || w.next != nil {
			t.Fatalf("freed node %+v: token %d, want an empty, unlinked node", w, len(w.token))
		}
		freeWaiter(w)
	}

	c2, complete2 := NewPendingCompletion()
	w2 := c2.Register()
	if w2 != freed[0] {
		t.Fatal("the registration did not reuse a freed node")
	}
	select {
	case <-w2.Token():
		t.Fatal("a recycled node delivered a token before its completion finished")
	default:
	}
	returned := make(chan error, 1)
	go func() { returned <- c2.Wait() }()
	poll.Until(t, "the Wait registered", func() bool { return registered(c2) == 2 })
	select {
	case <-returned:
		t.Fatal("Wait on a recycled node returned before its completion finished")
	default:
	}
	complete2(nil)
	<-w2.Token()
	w2.Release(true)
	if err := <-returned; err != nil {
		t.Fatalf("Wait = %v", err)
	}
}

// TestWaitNeverReturnsEarlyUnderReuse hammers the free list from several
// joiners: a stale token or a node shared by two goroutines would let a Wait
// return before its task ran.
func TestWaitNeverReturnsEarlyUnderReuse(t *testing.T) {
	defer leakcheck.Check(t)()
	p := NewWorkerPool("reuse", 2, nil)
	defer p.Shutdown()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				ran := false
				c := p.Post(func() { ran = true })
				if i%3 == 0 {
					<-c.Done()
				} else {
					c.Wait()
				}
				if !ran {
					t.Error("joiner released before its task ran")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestWaiterFreeListSurvivesGC pins why the free lists are not sync.Pools: a
// parked Post().Wait() costs its Completion and nothing else even when the
// collector runs between joins. The waiter node comes from a channel and the
// queue node from the pool's own list; a sync.Pool would be emptied, and each
// join would pay for a queue node, a waiter node and its token channel again.
func TestWaiterFreeListSurvivesGC(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	p := NewWorkerPool("gc", 1, nil)
	defer p.Shutdown()
	noop := func() {}
	// AllocsPerRun runs on one P: the worker cannot finish the task before
	// the poster blocks, so every Wait parks.
	got := testing.AllocsPerRun(50, func() {
		p.Post(noop).Wait()
		runtime.GC()
		runtime.GC()
	})
	if got > 1 {
		t.Errorf("Post().Wait() across collections: %v allocs/op, want 1", got)
	}
}

// TestNodeSizes: the Completion is the one object a Post allocates, the
// loop's or any pool's — two words, as long as the lifecycle is the verdict
// word. The queue node comes from the pool's free list: the Bracket (body and
// one span id), the *Completion, the label and the enqueue stamp.
func TestNodeSizes(t *testing.T) {
	if size := unsafe.Sizeof(task{}); size != 72 {
		t.Errorf("task is %d bytes, want 72", size)
	}
	if size := unsafe.Sizeof(Completion{}); size != 16 {
		t.Errorf("Completion is %d bytes, want 16", size)
	}
}

// TestSealedSuccessIsInert: every finished success — what a joined invoke and
// a block run in place return — is one shared completion, so nothing done
// through it may change it: Cancel reports false, Done is the shared closed
// channel, Register finds nothing to register on, Bracket.Run cannot claim
// it, and Wait and Err give nil throughout.
func TestSealedSuccessIsInert(t *testing.T) {
	c := NewCompletedCompletion(nil)
	if NewCompletedCompletion(nil) != c {
		t.Fatal("two finished successes are two completions, want one shared")
	}
	check := func(after string) {
		t.Helper()
		if !c.Finished() || c.Err() != nil || c.Wait() != nil {
			t.Errorf("%s: finished=%v err=%v, want a finished success", after, c.Finished(), c.Err())
		}
		if c.Done() != closedDone {
			t.Errorf("%s: Done is not the shared closed channel", after)
		}
		if w := c.Register(); w != nil {
			t.Errorf("%s: Register registered on a finished completion", after)
		}
	}
	check("new")
	if c.Cancel(errRevoked) {
		t.Error("Cancel reported true on a finished completion")
	}
	check("Cancel")
	c.complete(errRevoked)
	check("complete")
	b := Bracket{Fn: func() { t.Error("a body ran under a finished completion") }}
	if b.Run(c, "sealed", nil) {
		t.Error("Bracket.Run claimed a finished completion")
	}
	check("Bracket.Run")
	if err := NewCompletedCompletion(errRevoked); err == c || err.Err() != errRevoked {
		t.Errorf("a finished failure: %v, want its own completion carrying %v", err.Err(), errRevoked)
	}
}

// TestJoinRecyclesItsNode: a join posts with its waiter node's completion and
// hands the node back reset once it has the verdict, so the next join takes
// the same node with an unfinished completion and gets its own verdict.
func TestJoinRecyclesItsNode(t *testing.T) {
	p := NewWorkerPool("join", 1, nil)
	defer p.Shutdown()
	drainFreeList()
	j := NewJoin()
	p.PostTo(j.Completion(), func() { panic("first") })
	var pe *PanicError
	if err := j.Join(nil); !errors.As(err, &pe) || pe.Value != "first" {
		t.Fatalf("first join: %v, want the block's panic", err)
	}
	next := NewJoin()
	if next != j {
		t.Fatal("the next join did not take the recycled node")
	}
	if c := next.Completion(); c.Finished() || c.verdict.Load() != nil || c.waiters.Load() != nil {
		t.Fatal("the recycled node carries its last completion's state")
	}
	p.PostTo(next.Completion(), func() {})
	if err := next.Join(nil); err != nil {
		t.Fatalf("second join: %v, want nil", err)
	}
}
