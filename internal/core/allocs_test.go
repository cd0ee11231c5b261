package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/executor"
)

// TestAllocationBudget holds every way of handing a block to a virtual target
// to the heap objects DESIGN.md §10 accounts for: the node the caller keeps a
// pointer into, and the done channel of a joiner that has to park or await.
// Each figure is testing.AllocsPerRun's mean over 200 runs rounded down, so
// the occasional parked waiter's channel disappears in the rounding while a
// second object on every run does not. The runs count the whole process, the
// worker's and the EDT's side of the dispatch included.
func TestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const runs = 200
	f := newFixture(t, 1)
	noop := func() {}

	// One pending completion per run (and one for AllocsPerRun's warm-up),
	// made here so the Done row pays for nothing but Done.
	pending := make([]*executor.Completion, runs+1)
	for i := range pending {
		pending[i], _ = executor.NewPendingCompletion()
	}
	next := 0

	rows := []struct {
		name   string
		budget float64
		op     func()
	}{
		{"WorkerPool.Post", 1, func() { f.pool.Post(noop) }},
		{"WorkerPool.Post.Wait", 1, func() { f.pool.Post(noop).Wait() }},
		{"Loop.Post", 1, func() { f.edt.Post(noop) }},
		{"Loop.InvokeAndWait", 1, func() { f.edt.InvokeAndWait(noop) }},
		{"Invoke(Wait)", 1, func() { f.rt.Invoke("worker", Wait, noop) }},
		{"Invoke(Nowait)", 1, func() { f.rt.Invoke("worker", Nowait, noop) }},
		{"Invoke(Await)", 2, func() { f.rt.Invoke("worker", Await, noop) }},
		{"InvokeNamed+WaitTag", 1, func() {
			f.rt.InvokeNamed("worker", "budget", noop)
			f.rt.WaitTag("budget")
		}},
		{"Completion.Done", 1, func() {
			pending[next].Done()
			next++
		}},
	}
	for _, row := range rows {
		// AllocsPerRun runs on one P: the yield is what lets the target's side
		// of a fire-and-forget post — running the block, completing it,
		// recycling the loop's pooled queue node — happen inside the run
		// that caused it.
		got := testing.AllocsPerRun(runs, func() {
			row.op()
			runtime.Gosched()
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
