package trace

import (
	"context"
	"os"
	rtrace "runtime/trace"
	"sync"
)

// goTraceSink forwards spans to the Go execution tracer, which knows whether
// a goroutine inside a span was running, runnable, blocked or in a syscall.
// Each span is a task under its parent's: a queued one is "run "+target from
// its enqueue (queue plus run time), any other is name+" "+target from its
// begin. A begin also starts a region of that name; other ops are task logs.
//
// A region must end on the goroutine that started it, and every span keeps
// that rule: Scope.Close runs on the Open goroutine, Bracket.Run begins and
// ends its run span in one frame, and Bracket.endUnrun ends a task that never
// began a region. A task cannot be re-parented, so a queued task whose
// submitter had no span is a root, where BuildTree parents it to the runner's
// span. The open table is unbounded, unlike metrics.SpanSink's: the sink
// lives for one command run, and FailPending ends every span still queued.
type goTraceSink struct {
	mu   sync.Mutex
	open map[SpanID]*goSpan
}

type goSpan struct {
	ctx    context.Context
	task   *rtrace.Task
	region *rtrace.Region // nil until the span begins
}

// task returns id's open span, creating its task under parent's when absent.
func (s *goTraceSink) task(id, parent SpanID, name string) *goSpan {
	if sp := s.open[id]; sp != nil {
		return sp
	}
	ctx := context.Background()
	if p := s.open[parent]; p != nil {
		ctx = p.ctx
	}
	sp := &goSpan{}
	sp.ctx, sp.task = rtrace.NewTask(ctx, name)
	s.open[id] = sp
	return sp
}

// Record implements Sink.
func (s *goTraceSink) Record(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch sp := s.open[e.Span]; e.Op {
	case OpEnqueue:
		s.task(e.Span, e.Parent, "run "+e.Target)
	case OpSpanBegin:
		name := e.Name + " " + e.Target
		sp = s.task(e.Span, e.Parent, name)
		sp.region = rtrace.StartRegion(sp.ctx, name)
	case OpSpanEnd:
		if sp == nil {
			return
		}
		if sp.region != nil {
			sp.region.End()
		}
		sp.task.End()
		delete(s.open, e.Span)
	default:
		ctx := context.Background()
		if sp != nil {
			ctx = sp.ctx
		}
		rtrace.Log(ctx, e.Op.String(), e.Target+" "+e.Mode)
	}
}

// StartFile starts the Go execution tracer writing to path and installs a
// global sink that forwards every span to it. stop restores the previous
// sink, stops the tracer, closes the file and returns the first error of the
// writes and the close. StartFile fails if the tracer is already running.
func StartFile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &errWriter{File: f}
	if err := rtrace.Start(w); err != nil {
		f.Close()
		return nil, err
	}
	restore := Use(&goTraceSink{open: make(map[SpanID]*goSpan)})
	return func() error {
		restore()
		rtrace.Stop() // returns once every write to w has returned
		if err := f.Close(); w.err == nil {
			w.err = err
		}
		return w.err
	}, nil
}

// errWriter keeps the first write error, which runtime/trace drops.
type errWriter struct {
	*os.File
	err error
}

func (w *errWriter) Write(p []byte) (n int, err error) {
	if n, err = w.File.Write(p); w.err == nil {
		w.err = err
	}
	return n, err
}
