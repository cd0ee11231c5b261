package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/gid"
	"repro/internal/trace"
)

// TestSpanTreeInvokePostRun reconstructs the full causal chain of one
// asynchronous directive from the trace ring: the caller's invoke span, the
// enqueue edge, and the run span on the worker, parented across the dispatch
// boundary.
func TestSpanTreeInvokePostRun(t *testing.T) {
	buf := trace.NewBuffer(1024)
	defer trace.Use(buf)()

	var reg gid.Registry
	rt := NewRuntime(&reg)
	defer rt.Shutdown()
	if _, err := rt.CreateWorker("alpha", 1); err != nil {
		t.Fatal(err)
	}

	if _, err := rt.Invoke("alpha", Wait, func() { time.Sleep(time.Millisecond) }); err != nil {
		t.Fatal(err)
	}

	tree := trace.BuildTree(buf.Snapshot())
	inv := tree.Find("invoke", "alpha")
	if inv == nil {
		t.Fatalf("no invoke span captured:\n%s", buf.Dump())
	}
	if inv.Parent != 0 {
		t.Fatalf("top-level invoke should be a root, parent=%d", inv.Parent)
	}
	if !inv.HasOp(trace.OpInvoke) || !inv.HasOp(trace.OpPost) || !inv.HasOp(trace.OpWait) {
		t.Fatalf("invoke span missing scheduling annotations: %+v", inv.Events)
	}
	run := inv.Child("run", "alpha")
	if run == nil {
		t.Fatalf("run span not parented to invoke:\n%s", tree.String())
	}
	if run.Gid == inv.Gid {
		t.Fatalf("run should be on the worker goroutine, both on g%d", run.Gid)
	}
	if run.Enqueued.IsZero() {
		t.Fatal("run span has no enqueue timestamp (OpEnqueue lost)")
	}
	if run.QueueDelay() < 0 {
		t.Fatalf("negative queue sojourn %v", run.QueueDelay())
	}
	if run.Duration() < time.Millisecond {
		t.Fatalf("run duration %v, want >= 1ms", run.Duration())
	}
}

// TestSpanTreeInlineNesting: an invoke from inside the target's own context
// runs inline, so the inner invoke span nests under the outer run span on the
// same goroutine — thread-context awareness made visible in the tree.
func TestSpanTreeInlineNesting(t *testing.T) {
	buf := trace.NewBuffer(1024)
	defer trace.Use(buf)()

	var reg gid.Registry
	rt := NewRuntime(&reg)
	defer rt.Shutdown()
	if _, err := rt.CreateWorker("alpha", 1); err != nil {
		t.Fatal(err)
	}

	if _, err := rt.Invoke("alpha", Wait, func() {
		if _, err := rt.Invoke("alpha", Wait, func() {}); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}

	tree := trace.BuildTree(buf.Snapshot())
	outer := tree.Find("invoke", "alpha")
	if outer == nil {
		t.Fatalf("no outer invoke:\n%s", tree.String())
	}
	run := outer.Child("run", "alpha")
	if run == nil {
		t.Fatalf("outer run missing:\n%s", tree.String())
	}
	inner := run.Child("invoke", "alpha")
	if inner == nil {
		t.Fatalf("inner invoke not nested under outer run:\n%s", tree.String())
	}
	if !inner.HasOp(trace.OpInline) {
		t.Fatalf("inner invoke should have run inline: %+v", inner.Events)
	}
	if inner.Gid != run.Gid {
		t.Fatalf("inline invoke hopped goroutines: g%d vs g%d", inner.Gid, run.Gid)
	}
	if tree.Depth() < 3 {
		t.Fatalf("depth = %d, want >= 3:\n%s", tree.Depth(), tree.String())
	}
}

// TestSpanTreeAwaitHelpedParenting is the acceptance scenario: a task with an
// untraced submitter, helped by a goroutine parked in an await barrier, must
// parent to the awaiting invoke span — the helper's current span at run time
// is the only causal context the task has.
func TestSpanTreeAwaitHelpedParenting(t *testing.T) {
	buf := trace.NewBuffer(4096)
	defer trace.Use(buf)()

	var reg gid.Registry
	rt := NewRuntime(&reg)
	defer rt.Shutdown()
	alpha, err := rt.CreateWorker("alpha", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.CreateWorker("beta", 1); err != nil {
		t.Fatal(err)
	}

	helpedRan := make(chan struct{})
	if _, err := rt.Invoke("alpha", Wait, func() {
		// Submit from a goroutine with no active span: alpha's only worker
		// is busy right here, so the task sits queued until the await
		// barrier below helps it through.
		go func() {
			alpha.Post(func() { close(helpedRan) })
		}()
		// The beta block cannot finish until the helped task has run, which
		// forces this worker to actually help inside the barrier.
		if _, err := rt.Invoke("beta", Await, func() { <-helpedRan }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}

	tree := trace.BuildTree(buf.Snapshot())
	outer := tree.Find("invoke", "alpha")
	if outer == nil {
		t.Fatalf("no alpha invoke:\n%s", tree.String())
	}
	outerRun := outer.Child("run", "alpha")
	if outerRun == nil {
		t.Fatalf("alpha run missing:\n%s", tree.String())
	}
	await := outerRun.Child("invoke", "beta")
	if await == nil {
		t.Fatalf("beta invoke not nested under alpha run:\n%s", tree.String())
	}
	if !await.HasOp(trace.OpAwaitEnter) || !await.HasOp(trace.OpAwaitExit) {
		t.Fatalf("await barrier not annotated on the beta invoke span: %+v", await.Events)
	}
	if await.CountOp(trace.OpHelped) < 1 {
		t.Fatalf("no helped tasks recorded on the awaiting span: %+v", await.Events)
	}
	// The beta block's own run span and the helped alpha task are both
	// children of the awaiting invoke span.
	if await.Child("run", "beta") == nil {
		t.Fatalf("beta run not parented to its invoke:\n%s", tree.String())
	}
	helped := await.Child("run", "alpha")
	if helped == nil {
		t.Fatalf("helped task not parented to the awaiting span:\n%s", tree.String())
	}
	if helped.Gid != outerRun.Gid {
		t.Fatalf("helped task ran on g%d, want the awaiting worker g%d", helped.Gid, outerRun.Gid)
	}
	if !strings.Contains(tree.String(), "invoke(beta)") {
		t.Fatalf("tree render missing beta invoke:\n%s", tree.String())
	}
}
