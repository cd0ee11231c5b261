package core

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/executor"
	"repro/internal/testutil/raceflag"
)

// TestAllocationBudget holds every way of handing a block to a virtual target
// to the heap objects DESIGN.md §10 accounts for: the node the caller keeps a
// pointer into, and nothing for the join — a joiner that parks or awaits takes
// its waiter node from the executor package's free list, which AllocsPerRun's
// warm-up run fills. Each figure is testing.AllocsPerRun's mean over 200 runs
// rounded down. The runs count the whole process, the worker's and the EDT's
// side of the dispatch included.
func TestAllocationBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	const runs = 200
	f := newFixture(t, 1)
	noop := func() {}
	noopCtx := func(context.Context) {}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()

	// One pending completion per run (and one for AllocsPerRun's warm-up),
	// made here so the Done row pays for nothing but Done.
	type pendingComp struct {
		c      *executor.Completion
		finish func(error)
	}
	pending := make([]pendingComp, runs+1)
	for i := range pending {
		pending[i].c, pending[i].finish = executor.NewPendingCompletion()
	}
	next := 0

	// Where a row's operation is issued from: a goroutine no target owns, or
	// one of the two owners the await barrier helps.
	foreign := func(measure func()) { measure() }
	onEDT := func(measure func()) { f.edt.InvokeAndWait(measure) }
	onWorker := func(measure func()) { f.pool.Post(measure).Wait() }

	rows := []struct {
		name   string
		budget float64
		from   func(measure func())
		op     func()
	}{
		{"WorkerPool.Post", 1, foreign, func() { f.pool.Post(noop) }},
		// AllocsPerRun runs on one P, so the worker cannot run the block
		// before the poster blocks: this Wait always parks.
		{"WorkerPool.Post.Wait that parks", 1, foreign, func() { f.pool.Post(noop).Wait() }},
		{"Loop.Post", 1, foreign, func() { f.edt.Post(noop) }},
		{"Loop.InvokeAndWait", 1, foreign, func() { f.edt.InvokeAndWait(noop) }},
		{"Invoke(Wait)", 1, foreign, func() { f.rt.Invoke("worker", Wait, noop) }},
		{"Invoke(Nowait)", 1, foreign, func() { f.rt.Invoke("worker", Nowait, noop) }},
		{"Invoke(Await)", 1, foreign, func() { f.rt.Invoke("worker", Await, noop) }},
		{"Invoke(Await) from the EDT", 1, onEDT, func() { f.rt.Invoke("worker", Await, noop) }},
		{"Invoke(Await) from a pool worker", 1, onWorker, func() { f.rt.Invoke("edt", Await, noop) }},
		{"InvokeNamed+WaitTag", 1, foreign, func() {
			f.rt.InvokeNamed("worker", "budget", noop)
			f.rt.WaitTag("budget")
		}},
		// The block's closure over ctx joins the node; a context that can
		// expire adds the AfterFunc registration (its context, its callback,
		// its stop function) — no second completion, no channel, no goroutine.
		{"InvokeCtx(Background, Wait)", 2, foreign, func() { f.rt.InvokeCtx(context.Background(), "worker", Wait, noopCtx) }},
		{"InvokeCtx(Background, Wait) on the EDT", 2, foreign, func() { f.rt.InvokeCtx(context.Background(), "edt", Wait, noopCtx) }},
		{"InvokeCtx(cancellable, Wait)", 5, foreign, func() { f.rt.InvokeCtx(live, "worker", Wait, noopCtx) }},
		{"InvokeCtx(cancellable, Wait) on the EDT", 5, foreign, func() { f.rt.InvokeCtx(live, "edt", Wait, noopCtx) }},
		// The channel; the node under it goes back to the free list when the
		// completion finishes.
		{"Completion.Done", 1, foreign, func() {
			pending[next].c.Done()
			pending[next].finish(nil)
			next++
		}},
	}
	for _, row := range rows {
		var got float64
		row.from(func() {
			// The yield is what lets the target's side of a fire-and-forget
			// post — running the block, completing it, recycling the loop's
			// pooled queue node — happen inside the run that caused it.
			got = testing.AllocsPerRun(runs, func() {
				row.op()
				runtime.Gosched()
			})
		})
		if got > row.budget {
			t.Errorf("%s: %v allocs/op, budget %v", row.name, got, row.budget)
		}
	}

	// The node every Post allocates embeds a Completion: growing it grows
	// every task in flight.
	if size := unsafe.Sizeof(executor.Completion{}); size > 24 {
		t.Errorf("executor.Completion is %d bytes, budget 24", size)
	}
}
