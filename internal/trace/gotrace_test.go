package trace

import "testing"

// TestGoTraceSpanLifecycle feeds the execution-tracer sink every span shape
// the runtime records and checks that each one leaves the open table. The
// tracer need not be running: runtime/trace's tasks and regions are inert
// without it, and the table is what this test is about.
func TestGoTraceSpanLifecycle(t *testing.T) {
	s := &goTraceSink{open: make(map[SpanID]*goSpan)}

	// An invoke scope, and under it a task queued here and run elsewhere.
	sc := Open(s, "invoke", "w")
	run := NewSpanID()
	Enqueue(s, run, "w", Current())
	if sp := s.open[run]; sp == nil || sp.region != nil {
		t.Fatalf("enqueued span %+v, want an open task with no region", sp)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		BeginSpanID(s, run, "run", "w", 0)
		s.Record(Event{Op: OpHelped, Target: "w", Span: run})
		EndSpan(s, run, "run", "w")
	}()
	<-done
	sc.Close()

	// A task that left the queue without running (Bracket.endUnrun).
	unrun := NewSpanID()
	Enqueue(s, unrun, "w", 0)
	EndSpan(s, unrun, "run", "w")

	// An annotation with no span, and an end nothing began.
	s.Record(Event{Op: OpShed, Target: "w", Mode: "nowait"})
	EndSpan(s, NewSpanID(), "run", "w")

	if len(s.open) != 0 {
		t.Fatalf("%d spans left open: %+v", len(s.open), s.open)
	}
}
