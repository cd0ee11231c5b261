package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/executor"
	"repro/internal/testutil/raceflag"
)

// TestAllocationBudget holds every way of handing a block to a virtual target
// to the heap objects DESIGN.md §10 accounts for, and to their bytes: the
// Completion a caller that does not join keeps, and nothing for the queue or
// the join — the queue node comes from the pool's free list, and a joined
// invoke posts with its waiter node from the executor package's free list as
// the completion and returns a shared finished one; the warm-up run fills
// both lists. Each figure is the mean over 200 runs, on one P
// as testing.AllocsPerRun measures, rounded down: MemStats.Mallocs for the
// objects, MemStats.TotalAlloc (size classes, not requested sizes) for the
// bytes. The runs count the whole process, the worker's and the EDT's side of
// the dispatch included.
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
		name           string
		objects, bytes uint64
		from           func(measure func())
		op             func()
	}{
		{"WorkerPool.Post", 1, 16, foreign, func() { f.pool.Post(noop) }},
		// The runs are on one P, so the worker cannot run the block before
		// the poster blocks: this Wait always parks.
		{"WorkerPool.Post.Wait that parks", 1, 16, foreign, func() { f.pool.Post(noop).Wait() }},
		{"Loop.Post", 1, 16, foreign, func() { f.edt.Post(noop) }},
		{"Loop.InvokeAndWait", 0, 0, foreign, func() { f.edt.InvokeAndWait(noop) }},
		{"Invoke(Wait)", 0, 0, foreign, func() { f.rt.Invoke("worker", Wait, noop) }},
		{"Invoke(Nowait)", 1, 16, foreign, func() { f.rt.Invoke("worker", Nowait, noop) }},
		{"Invoke(Await)", 0, 0, foreign, func() { f.rt.Invoke("worker", Await, noop) }},
		{"Invoke(Await) from the EDT", 0, 0, onEDT, func() { f.rt.Invoke("worker", Await, noop) }},
		{"Invoke(Await) from a pool worker", 0, 0, onWorker, func() { f.rt.Invoke("edt", Await, noop) }},
		{"Invoke run in place", 0, 0, onEDT, func() { f.rt.Invoke("edt", Wait, noop) }},
		{"InvokeIf(false)", 0, 0, foreign, func() { f.rt.InvokeIf(false, "worker", Wait, noop) }},
		{"InvokeNamed+WaitTag", 1, 16, foreign, func() {
			f.rt.InvokeNamed("worker", "budget", noop)
			f.rt.WaitTag("budget")
		}},
		// The block's closure over ctx; a context that can expire adds the
		// Completion and the AfterFunc registration (its context, its
		// callback, its stop function) — no second completion, no channel,
		// no goroutine.
		{"InvokeCtx(Background, Wait)", 1, 32, foreign, func() { f.rt.InvokeCtx(context.Background(), "worker", Wait, noopCtx) }},
		{"InvokeCtx(Background, Wait) on the EDT", 1, 32, foreign, func() { f.rt.InvokeCtx(context.Background(), "edt", Wait, noopCtx) }},
		{"InvokeCtx(cancellable, Wait)", 5, 240, foreign, func() { f.rt.InvokeCtx(live, "worker", Wait, noopCtx) }},
		{"InvokeCtx(cancellable, Wait) on the EDT", 5, 240, foreign, func() { f.rt.InvokeCtx(live, "edt", Wait, noopCtx) }},
		// The channel; the node under it goes back to the free list when the
		// completion finishes.
		{"Completion.Done", 1, 112, foreign, func() {
			pending[next].c.Done()
			pending[next].finish(nil)
			next++
		}},
	}
	for _, row := range rows {
		var objects, bytes uint64
		row.from(func() {
			// The yield is what lets the target's side of a fire-and-forget
			// post — running the block, completing it, recycling its
			// queue node — happen inside the run that caused it.
			objects, bytes = perRun(runs, func() {
				row.op()
				runtime.Gosched()
			})
		})
		if objects > row.objects {
			t.Errorf("%s: %d allocs/op, budget %d", row.name, objects, row.objects)
		}
		if bytes > row.bytes {
			t.Errorf("%s: %d B/op, budget %d", row.name, bytes, row.bytes)
		}
	}
}

// perRun is testing.AllocsPerRun with a bytes column: one warm-up run, then
// the means over runs more on one P, each rounded down.
func perRun(runs int, op func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	n := uint64(runs)
	return (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
}
