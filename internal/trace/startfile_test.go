package trace_test

import (
	"os"
	"path/filepath"
	rtrace "runtime/trace"
	"testing"

	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/trace"
)

// TestStartFileThroughRuntime captures a real runtime's spans — Wait, Nowait
// and Await invokes, each running a nested Await on a second target — into
// an execution trace, and checks that stop leaves no span open, writes a
// file and puts the previous sink back.
func TestStartFileThroughRuntime(t *testing.T) {
	if rtrace.IsEnabled() {
		t.Skip("the execution tracer is already running")
	}
	prev := trace.NewBuffer(16)
	t.Cleanup(trace.Use(prev))
	path := filepath.Join(t.TempDir(), "out.trace")
	stop, err := trace.StartFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := trace.ActiveSink()

	rt := core.NewRuntime(&gid.Registry{})
	defer rt.Shutdown()
	for name, n := range map[string]int{"worker": 2, "aux": 1} {
		if _, err := rt.CreateWorker(name, n); err != nil {
			t.Fatal(err)
		}
	}
	nested := func() {
		if trace.OpenGoSpans(sink) == 0 {
			t.Error("no span open inside a run: the sink saw nothing")
		}
		if _, err := rt.Invoke("aux", core.Await, func() {}); err != nil {
			t.Error(err)
		}
	}
	var comps []*executor.Completion
	for i := 0; i < 30; i++ {
		mode := []core.Mode{core.Wait, core.Nowait, core.Await}[i%3]
		c, err := rt.Invoke("worker", mode, nested)
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, c)
	}
	for _, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file: %v, %v", fi, err)
	}
	if got := trace.ActiveSink(); got != trace.Sink(prev) {
		t.Fatalf("active sink after stop = %v, want the previous one", got)
	}
	if n := trace.OpenGoSpans(sink); n != 0 {
		t.Fatalf("%d spans left open", n)
	}
}
