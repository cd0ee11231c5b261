package core

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/executor"
)

func TestAwaitFromEDTOnOwnTarget(t *testing.T) {
	// await on a block targeted at the caller's own executor: the block is
	// inlined by thread-context awareness, so the barrier is trivially
	// already satisfied.
	f := newFixture(t, 1)
	err := f.edt.InvokeAndWait(func() {
		comp, ierr := f.rt.Invoke("edt", Await, func() {})
		if ierr != nil {
			t.Error(ierr)
			return
		}
		if !comp.Finished() {
			t.Error("inlined await block not finished")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvokeNamedUnknownTarget(t *testing.T) {
	f := newFixture(t, 1)
	if _, err := f.rt.InvokeNamed("ghost", "tag", func() {}); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("err = %v", err)
	}
}

func TestWaitTagConcurrentSubmitters(t *testing.T) {
	f := newFixture(t, 4)
	var n atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				f.rt.InvokeNamed("worker", "conc", func() { n.Add(1) })
			}
		}()
	}
	wg.Wait()
	if err := f.rt.WaitTag("conc"); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 8*20 {
		t.Fatalf("WaitTag returned with %d/160 done", n.Load())
	}
}

func TestNameGroupPrunesFinished(t *testing.T) {
	f := newFixture(t, 1)
	for i := 0; i < 100; i++ {
		c, _ := f.rt.InvokeNamed("worker", "prune", func() {})
		c.Wait()
	}
	// The group holds only live completions plus the latest insertion;
	// the internal slice must not have grown unboundedly.
	g, comps := f.rt.joinable("prune", nil)
	if g == nil || len(comps) > 2 {
		t.Fatalf("name group %v retains %d finished completions", g, len(comps))
	}
	// And the join that finds nothing left takes the group out of the table.
	f.rt.WaitTag("prune")
	if g, _ := f.rt.joinable("prune", nil); g != nil {
		t.Fatal("name group outlived the join that emptied it")
	}
}

func TestInvokeIfNilBlock(t *testing.T) {
	f := newFixture(t, 1)
	if _, err := f.rt.InvokeIf(false, "worker", Wait, nil); !errors.Is(err, ErrNilBlock) {
		t.Fatalf("err = %v", err)
	}
}

// ownsAll is a custom executor whose thread group is every goroutine, so
// thread-context awareness must inline every block and never reach Post.
type ownsAll struct{ t *testing.T }

func (ownsAll) Name() string        { return "direct" }
func (ownsAll) Owns() bool          { return true }
func (ownsAll) TryRunPending() bool { return false }
func (ownsAll) Shutdown()           {}
func (o ownsAll) Post(func()) *executor.Completion {
	o.t.Error("Post reached on a target that owns the caller")
	return executor.NewCompletedCompletion(nil)
}
func (o ownsAll) PostTo(c *executor.Completion, _ func()) {
	o.t.Error("PostTo reached on a target that owns the caller")
	c.Cancel(nil)
}

func TestRegisterTargetCustomExecutor(t *testing.T) {
	f := newFixture(t, 1)
	if err := f.rt.RegisterTarget("direct", ownsAll{t}); err != nil {
		t.Fatal(err)
	}
	ran := false
	comp, err := f.rt.Invoke("direct", Nowait, func() { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	// The target owns every goroutine: inline even with nowait.
	if !ran || !comp.Finished() {
		t.Fatal("direct target did not inline")
	}
}

func TestPoolStats(t *testing.T) {
	f := newFixture(t, 2)
	edtBefore := f.edt.Stats().Submitted
	for i := 0; i < 5; i++ {
		c, _ := f.rt.Invoke("worker", Nowait, func() {})
		c.Wait()
	}
	stats := f.rt.PoolStats()
	ws, ok := stats["worker"]
	if !ok {
		t.Fatalf("no stats for worker: %v", stats)
	}
	if ws.Submitted != 5 || ws.Completed != 5 {
		t.Fatalf("worker stats = %+v", ws)
	}
	// The event loop is a pool of one: it reports its counters too, and none
	// of the five went through it.
	if es, ok := stats["edt"]; !ok || es.Submitted != edtBefore {
		t.Fatalf("edt stats = %+v, reported = %v", es, ok)
	}
}

// TestJoinedTagsLeaveNoGroup pins defect (ii) of the roadmap: a program that
// tags per request must not keep a group per tag. Every tag that was invoked
// and joined is out of the table again — also the one whose block panicked,
// once its verdict has been handed to the join.
func TestJoinedTagsLeaveNoGroup(t *testing.T) {
	f := newFixture(t, 2)
	const tags, batch = 100_000, 50
	for i := 0; i < tags; i += batch {
		for j := i; j < i+batch; j++ {
			if _, err := f.rt.InvokeNamed("worker", "req"+strconv.Itoa(j), func() {}); err != nil {
				t.Fatal(err)
			}
		}
		for j := i; j < i+batch; j++ {
			if err := f.rt.WaitTag("req" + strconv.Itoa(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.rt.InvokeNamed("worker", "boom", func() { panic("boom") })
	var pe *executor.PanicError
	if err := f.rt.WaitTag("boom"); !errors.As(err, &pe) {
		t.Fatalf("WaitTag(boom) = %v, want the panic verdict", err)
	}
	if err := f.rt.WaitTag("boom"); err != nil {
		t.Fatalf("second WaitTag(boom) = %v: the verdict was already taken", err)
	}
	f.rt.groupMu.RLock()
	groups, spare := len(f.rt.groups), len(f.rt.spare)
	f.rt.groupMu.RUnlock()
	if groups != 0 || spare > maxSpareGroups {
		t.Fatalf("after the joins: %d groups in the table and %d spare (max %d), want 0 groups", groups, spare, maxSpareGroups)
	}
}
