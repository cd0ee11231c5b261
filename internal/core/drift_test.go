package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/sanitize"
	"repro/internal/trace"
)

// invokeOutcome is everything an Invoke* call lets its caller observe, in a
// form two entry points can be compared on with ==.
type invokeOutcome struct {
	err     string // the returned error
	verdict string // the Completion's terminal error ("none" if no Completion)
	inPlace bool   // the block ran on the encountering goroutine
	ops     string // scheduling decisions, in the order they were recorded
	tree    string // span forest: kind(target) and the ops annotating each span
}

// stoppingTarget loses the shutdown race on purpose: resolve sees a live
// runtime, and by the time the post lands the runtime is stopped and the
// target rejects it, the window stoppedRejection exists for.
type stoppingTarget struct {
	executor.Executor
	rt *Runtime
}

func (s stoppingTarget) PostTo(c *executor.Completion, _ func()) {
	s.rt.Shutdown()
	c.Cancel(executor.ErrShutdown)
}

// TestInvokeEntryPointsAgree pins what the single invoke skeleton is for:
// Invoke and InvokeCtx (with an uncancellable and with a live cancellable
// context) are the same Algorithm 1, so for every mode, caller context and
// runtime state they return the same error, the same completion verdict, and
// leave the same scheduling decisions and the same span tree in the trace.
func TestInvokeEntryPointsAgree(t *testing.T) {
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	viaCtx := func(ctx context.Context) func(*Runtime, Mode, func()) (*executor.Completion, error) {
		return func(rt *Runtime, mode Mode, block func()) (*executor.Completion, error) {
			return rt.InvokeCtx(ctx, "w", mode, func(context.Context) { block() })
		}
	}
	entries := []struct {
		name string
		call func(*Runtime, Mode, func()) (*executor.Completion, error)
	}{
		{"Invoke", func(rt *Runtime, mode Mode, block func()) (*executor.Completion, error) {
			return rt.Invoke("w", mode, block)
		}},
		{"InvokeCtx(Background)", viaCtx(context.Background())},
		{"InvokeCtx(cancellable)", viaCtx(live)},
	}

	for _, mode := range []Mode{Wait, Nowait, Await} {
		for _, owns := range []bool{true, false} {
			for _, state := range []string{"enabled", "stopped", "stopping"} {
				if state == "stopping" && owns {
					continue // an owned target is never posted to
				}
				for _, panics := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/owns=%v/%s/panics=%v", mode, owns, state, panics), func(t *testing.T) {
						want := runInvokeCase(t, entries[0].call, mode, owns, state, panics)
						// Guard against agreeing on nonsense.
						down := state == "stopped" || state == "stopping"
						switch {
						case down && want.err != ErrRuntimeStopped.Error():
							t.Fatalf("%s: err = %q, want ErrRuntimeStopped", entries[0].name, want.err)
						case !down && (want.err != "<nil>" || want.inPlace != owns):
							t.Fatalf("%s: outcome = %+v", entries[0].name, want)
						case !down && panics != strings.Contains(want.verdict, "boom"):
							t.Fatalf("%s: verdict = %q with panics=%v", entries[0].name, want.verdict, panics)
						}
						for _, en := range entries[1:] {
							if got := runInvokeCase(t, en.call, mode, owns, state, panics); got != want {
								t.Errorf("%s drifted from %s:\n got %+v\nwant %+v", en.name, entries[0].name, got, want)
							}
						}
					})
				}
			}
		}
	}
}

// runInvokeCase performs one invocation of target "w" from a worker of "w"
// itself (owns) or of a second pool, and reports what it observed. Neither
// pool belongs to the runtime, so stopping the runtime leaves the caller
// running.
func runInvokeCase(t *testing.T, call func(*Runtime, Mode, func()) (*executor.Completion, error),
	mode Mode, owns bool, state string, panics bool) invokeOutcome {
	t.Helper()
	reg := &gid.Registry{}
	rt := NewRuntime(reg)
	target := executor.NewWorkerPool("w", 1, reg)
	defer target.Shutdown()
	caller := target
	if !owns {
		caller = executor.NewWorkerPool("caller", 1, reg)
		defer caller.Shutdown()
	}
	var registered executor.Executor = target
	if state == "stopping" {
		registered = stoppingTarget{target, rt}
	}
	if err := rt.RegisterTarget("w", registered); err != nil {
		t.Fatal(err)
	}
	if state == "stopped" {
		rt.Shutdown()
	}

	buf := trace.NewBuffer(256)
	defer trace.Use(buf)()
	// Whether the logical barrier is entered depends on the block still
	// running when the caller gets there; hold the block until it is.
	holdForBarrier := mode == Await && !owns && state == "enabled"

	out := invokeOutcome{verdict: "none"}
	if err := caller.Post(func() {
		me := gid.Current()
		var ranOn gid.ID
		comp, err := call(rt, mode, func() {
			ranOn = gid.Current()
			for deadline := time.Now().Add(5 * time.Second); holdForBarrier && buf.CountOp(trace.OpAwaitEnter) == 0; {
				if time.Now().After(deadline) {
					t.Error("caller never entered the await barrier")
					break
				}
				time.Sleep(50 * time.Microsecond)
			}
			if panics {
				panic("boom")
			}
		})
		out.err = fmt.Sprint(err)
		if comp != nil {
			out.verdict = fmt.Sprint(comp.Wait())
			out.inPlace = ranOn == me
		}
	}).Wait(); err != nil {
		t.Fatalf("caller task: %v", err)
	}

	events := buf.Snapshot()
	var ops []string
	for _, e := range events {
		if e.Op != trace.OpSpanBegin && e.Op != trace.OpSpanEnd && e.Op != trace.OpEnqueue {
			ops = append(ops, fmt.Sprintf("%s(%s,%s)", e.Op, e.Target, e.Mode))
		}
	}
	out.ops = strings.Join(ops, " ")
	var tree strings.Builder
	var walk func(n *trace.SpanNode, depth int)
	walk = func(n *trace.SpanNode, depth int) {
		fmt.Fprintf(&tree, "%s%s(%s)", strings.Repeat("  ", depth), n.Name, n.Target)
		for _, e := range n.Events {
			fmt.Fprintf(&tree, " %s", e.Op)
		}
		if n.End.IsZero() {
			tree.WriteString(" OPEN")
		}
		tree.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range trace.BuildTree(events).Roots {
		walk(r, 0)
	}
	out.tree = tree.String()
	return out
}

// ownedStub is a target that claims every goroutine and counts how often the
// sanitizer cross-check is consulted.
type ownedStub struct {
	executor.Executor
	sanChecks *int
}

func (ownedStub) Owns() bool                { return true }
func (s ownedStub) SanCheck(string, string) { *s.sanChecks++ }

// TestInlineRunIsSanChecked: under -tags=ompsan an in-place run is
// cross-checked against the executor's own goroutine stamp before Owns() is
// trusted, whichever entry point decided to inline; untagged, neither pays.
func TestInlineRunIsSanChecked(t *testing.T) {
	f := newFixture(t, 1)
	var n int
	if err := f.rt.RegisterTarget("stub", ownedStub{f.pool, &n}); err != nil {
		t.Fatal(err)
	}
	want := 0
	if sanitize.Enabled {
		want = 1
	}
	if c, err := f.rt.Invoke("stub", Wait, func() {}); err != nil || !c.Finished() {
		t.Fatalf("Invoke: comp=%v err=%v", c, err)
	}
	if n != want {
		t.Errorf("Invoke consulted SanCheck %d times, want %d", n, want)
	}
	n = 0
	if c, err := f.rt.InvokeCtx(context.Background(), "stub", Wait, func(context.Context) {}); err != nil || !c.Finished() {
		t.Fatalf("InvokeCtx: comp=%v err=%v", c, err)
	}
	if n != want {
		t.Errorf("InvokeCtx consulted SanCheck %d times, want %d", n, want)
	}
}
