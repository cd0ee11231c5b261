package core

import (
	"testing"

	"repro/internal/testutil/poll"
	"repro/internal/trace"
)

// TestTraceRecordsSchedulingDecisions verifies the tracer sees exactly the
// decisions Algorithm 1 makes: post vs inline, wait, and the await barrier
// with help-first task runs.
func TestTraceRecordsSchedulingDecisions(t *testing.T) {
	f := newFixture(t, 1)
	buf := trace.NewBuffer(256)
	t.Cleanup(trace.Use(buf))

	// Wait mode from outside: invoke + post + wait.
	f.rt.Invoke("worker", Wait, func() {})
	if buf.CountOp(trace.OpPost) != 1 || buf.CountOp(trace.OpWait) != 1 {
		t.Fatalf("wait-mode trace:\n%s", buf.Dump())
	}

	// Same-target nested invoke: inline, no post.
	buf.Reset()
	comp, _ := f.rt.Invoke("worker", Wait, func() {
		f.rt.Invoke("worker", Wait, func() {})
	})
	comp.Wait()
	if buf.CountOp(trace.OpInline) != 1 {
		t.Fatalf("inline not traced:\n%s", buf.Dump())
	}

	// Await on a worker that helps a queued task: barrier enter/exit and a
	// helped record.
	buf.Reset()
	release := make(chan struct{})
	aux, err := f.rt.CreateWorker("aux2", 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = aux
	outer, _ := f.rt.Invoke("worker", Nowait, func() {
		f.rt.Invoke("aux2", Await, func() { <-release })
	})
	poll.UntilBlockedIn(t, "(*WorkerPool).WaitPending")
	helped, _ := f.rt.Invoke("worker", Nowait, func() {})
	helped.Wait()
	close(release)
	outer.Wait()
	if buf.CountOp(trace.OpAwaitEnter) != 1 || buf.CountOp(trace.OpAwaitExit) != 1 {
		t.Fatalf("await barrier not traced:\n%s", buf.Dump())
	}
	if buf.CountOp(trace.OpHelped) < 1 {
		t.Fatalf("helped task not traced:\n%s", buf.Dump())
	}

	// Disabling the sink stops recording.
	trace.SetGlobal(nil)
	before := buf.Len()
	f.rt.Invoke("worker", Nowait, func() {})
	if buf.Len() != before {
		t.Fatal("events recorded after sink removed")
	}
}
