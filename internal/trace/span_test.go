package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewSpanIDNeverZero(t *testing.T) {
	seen := make(map[SpanID]bool)
	for i := 0; i < 1000; i++ {
		id := NewSpanID()
		if id == 0 {
			t.Fatal("NewSpanID returned 0")
		}
		if seen[id] {
			t.Fatalf("duplicate span id %d", id)
		}
		seen[id] = true
	}
}

func TestSwapAndCurrent(t *testing.T) {
	if got := Current(); got != 0 {
		t.Fatalf("fresh goroutine Current() = %d, want 0", got)
	}
	a, b := NewSpanID(), NewSpanID()
	if prev := Swap(a); prev != 0 {
		t.Fatalf("first Swap returned %d, want 0", prev)
	}
	if got := Current(); got != a {
		t.Fatalf("Current() = %d, want %d", got, a)
	}
	if prev := Swap(b); prev != a {
		t.Fatalf("second Swap returned %d, want %d", prev, a)
	}
	if prev := Swap(0); prev != b {
		t.Fatalf("clearing Swap returned %d, want %d", prev, b)
	}
	if got := Current(); got != 0 {
		t.Fatalf("Current() after clear = %d, want 0", got)
	}
}

func TestCurrentIsPerGoroutine(t *testing.T) {
	mine := NewSpanID()
	Swap(mine)
	defer Swap(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := Current(); got != 0 {
				t.Errorf("other goroutine sees span %d, want 0", got)
			}
			own := NewSpanID()
			Swap(own)
			if got := Current(); got != own {
				t.Errorf("goroutine Current() = %d, want %d", got, own)
			}
			Swap(0)
		}()
	}
	wg.Wait()
	if got := Current(); got != mine {
		t.Fatalf("my span disturbed: Current() = %d, want %d", got, mine)
	}
}

func TestUseInstallsAndRestores(t *testing.T) {
	if ActiveSink() != nil {
		t.Fatal("test expects no ambient global sink")
	}
	buf := NewBuffer(64)
	restore := Use(buf)
	if ActiveSink() == nil {
		t.Fatal("Use did not install the sink")
	}
	restore()
	if ActiveSink() != nil {
		t.Fatal("restore did not remove the sink")
	}
}

func TestSpanHelpersRecordLifecycle(t *testing.T) {
	buf := NewBuffer(64)
	parent := BeginSpan(buf, "invoke", "alpha", 0)
	child := NewSpanID()
	Enqueue(buf, child, "alpha", parent)
	BeginSpanID(buf, child, "run", "alpha", parent)
	EndSpan(buf, child, "run", "alpha")
	EndSpan(buf, parent, "invoke", "alpha")

	events := buf.Snapshot()
	if len(events) != 5 {
		t.Fatalf("recorded %d events, want 5", len(events))
	}
	tree := BuildTree(events)
	inv := tree.Find("invoke", "alpha")
	if inv == nil {
		t.Fatalf("no invoke span in tree:\n%s", tree.String())
	}
	run := inv.Child("run", "alpha")
	if run == nil {
		t.Fatalf("run span not a child of invoke:\n%s", tree.String())
	}
	if run.Parent != parent || run.ID != child {
		t.Fatalf("run span identity wrong: id=%d parent=%d", run.ID, run.Parent)
	}
	if run.Enqueued.IsZero() {
		t.Fatal("run span lost its enqueue timestamp")
	}
	if run.QueueDelay() < 0 {
		t.Fatalf("negative queue delay %v", run.QueueDelay())
	}
	if inv.Duration() <= 0 {
		t.Fatalf("invoke span duration %v, want > 0", inv.Duration())
	}
}

func TestBuildTreeOrphansAndEnqueueFallback(t *testing.T) {
	base := time.Now()
	events := []Event{
		// Annotation for a span whose begin was never captured: orphan.
		{Op: OpHelped, Span: 999, Time: base},
		// Enqueue-only span (begin/end lost to wraparound): parent and
		// target still recovered from the enqueue record.
		{Op: OpEnqueue, Span: 7, Parent: 3, Target: "w", Name: "enqueue", Time: base},
		{Op: OpSpanBegin, Span: 3, Name: "invoke", Target: "w", Time: base.Add(time.Millisecond)},
		{Op: OpSpanEnd, Span: 3, Name: "invoke", Target: "w", Time: base.Add(2 * time.Millisecond)},
		// Enqueue then end with no begin: a task cancelled or failed while
		// queued gives its span id back without ever running.
		{Op: OpEnqueue, Span: 8, Parent: 3, Target: "w", Name: "enqueue", Time: base.Add(time.Millisecond)},
		{Op: OpSpanEnd, Span: 8, Name: "run", Target: "w", Time: base.Add(3 * time.Millisecond)},
	}
	tree := BuildTree(events)
	if len(tree.Orphans) != 1 || tree.Orphans[0].Span != 999 {
		t.Fatalf("orphans = %+v, want the span-999 annotation", tree.Orphans)
	}
	n := tree.ByID[7]
	if n == nil || n.Parent != 3 || n.Target != "w" {
		t.Fatalf("enqueue-only span not reconstructed: %+v", n)
	}
	inv := tree.ByID[3]
	if inv == nil || len(inv.Children) != 2 || inv.Children[0].ID != 7 || inv.Children[1].ID != 8 {
		t.Fatalf("unbegun spans not parented under invoke:\n%s", tree.String())
	}
	u := tree.ByID[8]
	if u.Name != "run" || u.Target != "w" || !u.Start.IsZero() || u.End.IsZero() || u.Duration() != 0 || u.QueueDelay() != 0 {
		t.Fatalf("enqueue-then-end span not reconstructed as an unrun task: %+v", u)
	}
}

// TestBuildTreeRunParentFromEnqueue: a run span's begin records the runner's
// current span and its enqueue the submitter's. The tree takes the enqueue's
// parent when it is nonzero and the begin's otherwise, in either event order:
// a task helped inside an await barrier, posted by a goroutine with no span,
// parents to the awaiting invoke.
func TestBuildTreeRunParentFromEnqueue(t *testing.T) {
	const (
		submitter SpanID = 1 // the invoke that posted the task
		runner    SpanID = 2 // the span current where the task ran
		run       SpanID = 3
	)
	base := time.Now()
	begin := func(id, parent SpanID, name string) Event {
		return Event{Op: OpSpanBegin, Span: id, Parent: parent, Name: name, Target: "w", Time: base}
	}
	enqueue := Event{Op: OpEnqueue, Span: run, Parent: submitter, Name: "enqueue", Target: "w", Time: base}
	unparented := enqueue
	unparented.Parent = 0
	spans := []Event{begin(submitter, 0, "invoke"), begin(runner, 0, "invoke")}
	for _, tc := range []struct {
		name   string
		events []Event
		want   SpanID
	}{
		{"enqueue then begin", []Event{enqueue, begin(run, runner, "run")}, submitter},
		{"begin then enqueue", []Event{begin(run, runner, "run"), enqueue}, submitter},
		{"unparented enqueue then begin", []Event{unparented, begin(run, runner, "run")}, runner},
		{"begin then unparented enqueue", []Event{begin(run, runner, "run"), unparented}, runner},
		{"enqueue only", []Event{enqueue}, submitter},
		{"begin only", []Event{begin(run, runner, "run")}, runner},
	} {
		tree := BuildTree(append(append([]Event(nil), spans...), tc.events...))
		n := tree.ByID[run]
		if n == nil || n.Parent != tc.want {
			t.Fatalf("%s: run span %+v, want parent %d", tc.name, n, tc.want)
		}
		if p := tree.ByID[tc.want]; len(p.Children) != 1 || p.Children[0] != n {
			t.Fatalf("%s: run span not the one child of span %d:\n%s", tc.name, tc.want, tree)
		}
	}
}

func TestTreeDepthAndFindAll(t *testing.T) {
	buf := NewBuffer(64)
	a := BeginSpan(buf, "invoke", "x", 0)
	b := BeginSpan(buf, "run", "x", a)
	c := BeginSpan(buf, "invoke", "y", b)
	EndSpan(buf, c, "invoke", "y")
	EndSpan(buf, b, "run", "x")
	EndSpan(buf, a, "invoke", "x")
	tree := BuildTree(buf.Snapshot())
	if d := tree.Depth(); d != 3 {
		t.Fatalf("Depth() = %d, want 3\n%s", d, tree.String())
	}
	if got := len(tree.FindAll("invoke", "")); got != 2 {
		t.Fatalf("FindAll(invoke) = %d spans, want 2", got)
	}
	if !strings.Contains(tree.Summarize(), "depth=3") {
		t.Fatalf("Summarize missing depth:\n%s", tree.Summarize())
	}
}
